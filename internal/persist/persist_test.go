package persist

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U64(math.MaxUint64)
	e.U32(0xdeadbeef)
	e.U8(7)
	e.I64(-42)
	e.Int(-1)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.String("mmV2V")

	d := NewDecoder(e.Bytes())
	if got := d.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); !math.Signbit(got) || got != 0 {
		t.Errorf("F64 negative zero = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, 1) {
		t.Errorf("F64 +inf = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.String(); got != "mmV2V" {
		t.Errorf("String = %q", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	var e Encoder
	e.U32(5)
	d := NewDecoder(e.Bytes())
	if got := d.U64(); got != 0 {
		t.Errorf("truncated U64 = %d", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", d.Err())
	}
	// Every later read returns zero values without disturbing the error.
	if d.U32() != 0 || d.String() != "" || d.Bool() || d.F64() != 0 {
		t.Error("reads after a latched error must return zero values")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("latched error was overwritten: %v", d.Err())
	}
}

func TestDecoderCountClamp(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // a count no remaining input could satisfy
	d := NewDecoder(e.Bytes())
	if got := d.Count(8); got != 0 {
		t.Errorf("Count = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", d.Err())
	}
}

func TestLogRoundTrip(t *testing.T) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("header"))
	log = AppendRecord(log, 2, []byte("window 0"))
	log = AppendRecord(log, 2, nil)
	recs, truncated, err := ReadLog(log)
	if err != nil || truncated {
		t.Fatalf("ReadLog: recs=%d truncated=%v err=%v", len(recs), truncated, err)
	}
	if len(recs) != 3 || recs[0].Type != 1 || string(recs[1].Payload) != "window 0" || len(recs[2].Payload) != 0 {
		t.Errorf("records = %+v", recs)
	}
}

func TestLogTruncatedTailRecovery(t *testing.T) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("keep me"))
	full := AppendRecord(append([]byte(nil), log...), 2, []byte("torn away"))
	// Cut the final append anywhere inside it: the first record survives.
	for cut := len(log) + 1; cut < len(full); cut++ {
		recs, truncated, err := ReadLog(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
		if !truncated {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
		if len(recs) != 1 || string(recs[0].Payload) != "keep me" {
			t.Fatalf("cut %d: records = %+v", cut, recs)
		}
	}
}

func TestLogInteriorCorruption(t *testing.T) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("first"))
	mark := len(log)
	log = AppendRecord(log, 2, []byte("second"))
	log[mark+recHdrLen] ^= 0x40 // flip a payload bit of the complete second record
	recs, _, err := ReadLog(log)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "first" {
		t.Errorf("records before corruption = %+v", recs)
	}
}

func TestLogRejectsBadHeader(t *testing.T) {
	if _, _, err := ReadLog([]byte("short")); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	if _, _, err := ReadLog([]byte("WRONGMAG\x01\x00\x00\x00")); !errors.Is(err, ErrMagic) {
		t.Errorf("magic: %v", err)
	}
	bad := NewLog()
	bad[8] = 99
	if _, _, err := ReadLog(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.log")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

// FuzzDecodeLog drives arbitrary bytes through the record-log reader; torn
// tails must be flagged, interior corruption must error, and nothing may
// panic.
func FuzzDecodeLog(f *testing.F) {
	log := NewLog()
	log = AppendRecord(log, 1, []byte("header"))
	log = AppendRecord(log, 2, make([]byte, 32))
	log = AppendRecord(log, 3, nil)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add([]byte("MMV2VLOG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, truncated, err := ReadLog(b)
		if err != nil && truncated {
			t.Fatalf("both error (%v) and truncated", err)
		}
		for _, r := range recs {
			_ = r.Type
			_ = len(r.Payload)
		}
	})
}
