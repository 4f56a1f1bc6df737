package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testOp(n uint64, client string, seq uint64) Op {
	return Op{OpNumber: n, Counter: n * 10, Client: client, ClientSeq: seq}
}

func TestOpRecordRoundTrip(t *testing.T) {
	ops := []Op{
		{OpNumber: 1, Counter: 7},
		{OpNumber: 2, Counter: 8, Client: "client-1", ClientSeq: 3},
		{OpNumber: 1<<63 + 9, Counter: 1<<64 - 1, Client: "x", ClientSeq: 1 << 40},
	}
	for _, want := range ops {
		buf := make([]byte, opRecordSize(want))
		n := encodeOpRecord(buf, want)
		if n != len(buf) {
			t.Fatalf("encodeOpRecord wrote %d, want %d", n, len(buf))
		}
		got, consumed, err := DecodeLogRecord(buf)
		if err != nil {
			t.Fatalf("DecodeLogRecord(%+v): %v", want, err)
		}
		if consumed != n {
			t.Fatalf("consumed %d, want %d", consumed, n)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestDecodeLogRecordDamage(t *testing.T) {
	op := testOp(5, "client-1", 2)
	rec := make([]byte, opRecordSize(op))
	encodeOpRecord(rec, op)

	// Every strict prefix is torn, never corrupt: an interrupted append
	// must read as an incomplete tail.
	for i := 0; i < len(rec); i++ {
		if _, _, err := DecodeLogRecord(rec[:i]); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("prefix %d/%d: got %v, want ErrTornRecord", i, len(rec), err)
		}
	}
	// Any flipped payload byte is corrupt (frame intact, CRC wrong).
	for i := frameOverhead; i < len(rec); i++ {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x41
		if _, _, err := DecodeLogRecord(mut); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("flip byte %d: got %v, want ErrCorruptRecord", i, err)
		}
	}
	// A frame length beyond MaxRecordSize is corruption, not a huge read.
	huge := append([]byte(nil), rec...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeLogRecord(huge); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("oversized frame: got %v, want ErrCorruptRecord", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snaps := []Snapshot{
		{},
		{OpNumber: 42, Counter: 420},
		{OpNumber: 7, Counter: 70, Dedup: []DedupEntry{
			{Client: "a", Seq: 1, Counter: 10},
			{Client: "client-long-name", Seq: 9, Counter: 70},
		}},
	}
	for _, want := range snaps {
		got, err := DecodeSnapshot(EncodeSnapshot(want))
		if err != nil {
			t.Fatalf("DecodeSnapshot(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		fgot, err := decodeCheckpointFile(encodeCheckpointFile(want))
		if err != nil {
			t.Fatalf("decodeCheckpointFile(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(fgot, want) {
			t.Fatalf("file round trip: got %+v want %+v", fgot, want)
		}
	}
	// Trailing garbage and implausible entry counts are rejected.
	enc := EncodeSnapshot(snaps[2])
	if _, err := DecodeSnapshot(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[17], bad[18], bad[19], bad[20] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("implausible entry count accepted")
	}
}

// openStore opens a store in dir, failing the test on error.
func openStore(t *testing.T, dir string, inj *FaultInjector) (*Store, RecoverResult) {
	t.Helper()
	s, res, err := Open(Config{Dir: dir, Replica: "r1", Faults: inj, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, res
}

func TestStoreAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s, res := openStore(t, dir, nil)
	if res.Replayed != 0 || res.CheckpointLoaded || res.Truncated {
		t.Fatalf("fresh dir: unexpected recovery %+v", res)
	}
	for i := uint64(1); i <= 20; i++ {
		s.Append(Op{OpNumber: i, Counter: i, Client: "c1", ClientSeq: i})
	}
	s.Close()

	s2, res2 := openStore(t, dir, nil)
	defer s2.Close()
	if res2.Replayed != 20 || res2.Truncated {
		t.Fatalf("recovery: %+v", res2)
	}
	want := Snapshot{OpNumber: 20, Counter: 20,
		Dedup: []DedupEntry{{Client: "c1", Seq: 20, Counter: 20}}}
	if !reflect.DeepEqual(res2.Snap, want) {
		t.Fatalf("recovered %+v, want %+v", res2.Snap, want)
	}
}

func TestStoreCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, nil)
	for i := uint64(1); i <= 10; i++ {
		s.Append(testOp(i, "", 0))
	}
	s.Checkpoint(Snapshot{OpNumber: 10, Counter: 100})
	s.Barrier()
	if got := s.LogBytes(); got != 0 {
		t.Fatalf("LogBytes after checkpoint = %d, want 0", got)
	}
	fi, err := os.Stat(filepath.Join(dir, "oplog"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(headerSize) {
		t.Fatalf("oplog size after checkpoint = %d, want header only (%d)", fi.Size(), headerSize)
	}
	// The incremental suffix: ops past the checkpoint live in the log.
	for i := uint64(11); i <= 13; i++ {
		s.Append(testOp(i, "", 0))
	}
	s.Close()

	s2, res := openStore(t, dir, nil)
	defer s2.Close()
	if !res.CheckpointLoaded || res.Replayed != 3 || res.Truncated {
		t.Fatalf("recovery: %+v", res)
	}
	if res.Snap.OpNumber != 13 || res.Snap.Counter != 130 {
		t.Fatalf("recovered %+v, want op 13 counter 130", res.Snap)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	inj, err := NewFaultInjector(1, FaultPlan{{Name: "tear", Kind: TornWrite, At: 7}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := openStore(t, dir, inj)
	for i := uint64(1); i <= 10; i++ {
		s.Append(testOp(i, "c", i))
	}
	s.Close()
	if inj.Fired("tear") != 1 {
		t.Fatalf("tear fired %d times, want 1", inj.Fired("tear"))
	}

	s2, res := openStore(t, dir, nil)
	defer s2.Close()
	if !res.Truncated || res.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %+v", res)
	}
	// Append ordinal 7 is op 8: ops 1..7 survive, the torn record and
	// everything after it (dropped by the wedge) do not.
	if res.Replayed != 7 || res.Snap.OpNumber != 7 {
		t.Fatalf("recovered %+v (replayed %d), want ops 1..7", res.Snap, res.Replayed)
	}
	// The truncated store accepts new appends at the recovered position.
	s2.Append(testOp(8, "c", 8))
	s2.Barrier()
}

func TestStoreCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	inj, err := NewFaultInjector(99, FaultPlan{{Name: "flip", Kind: CorruptWrite, At: 4}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := openStore(t, dir, inj)
	for i := uint64(1); i <= 10; i++ {
		s.Append(testOp(i, "c", i))
	}
	s.Close()

	s2, res := openStore(t, dir, nil)
	defer s2.Close()
	if !res.Truncated {
		t.Fatalf("corrupt record not truncated: %+v", res)
	}
	// The CRC catches the damaged record (ordinal 4 = op 5); recovery stops
	// there and never replays it or the records behind it.
	if res.Replayed != 4 || res.Snap.OpNumber != 4 {
		t.Fatalf("recovered %+v (replayed %d), want ops 1..4", res.Snap, res.Replayed)
	}
}

func TestStoreShortWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	inj, err := NewFaultInjector(5, FaultPlan{
		{Kind: ShortWrite, At: 0, For: -1, SegmentBytes: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := openStore(t, dir, inj)
	for i := uint64(1); i <= 10; i++ {
		s.Append(testOp(i, "cc", i))
	}
	s.Close()

	s2, res := openStore(t, dir, nil)
	defer s2.Close()
	if res.Truncated || res.Replayed != 10 || res.Snap.OpNumber != 10 {
		t.Fatalf("short writes must be invisible to recovery: %+v", res)
	}
}

func TestStoreSyncFaultKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	inj, err := NewFaultInjector(2, FaultPlan{{Name: "nosync", Kind: SyncError, At: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := openStore(t, dir, inj)
	for i := uint64(1); i <= 5; i++ {
		s.Append(testOp(i, "", 0))
	}
	s.Checkpoint(Snapshot{OpNumber: 5, Counter: 50}) // sync ordinal 0: succeeds
	for i := uint64(6); i <= 8; i++ {
		s.Append(testOp(i, "", 0))
	}
	s.Checkpoint(Snapshot{OpNumber: 8, Counter: 80}) // sync ordinal 1: fault
	s.Barrier()
	if inj.Fired("nosync") != 1 {
		t.Fatalf("nosync fired %d times, want 1", inj.Fired("nosync"))
	}
	for i := uint64(9); i <= 10; i++ {
		s.Append(testOp(i, "", 0))
	}
	s.Close()

	// The failed checkpoint was abandoned, so recovery = checkpoint@5 +
	// replayed suffix 6..10 (the log was NOT truncated at 8).
	s2, res := openStore(t, dir, nil)
	defer s2.Close()
	if !res.CheckpointLoaded || res.Replayed != 5 {
		t.Fatalf("recovery after sync fault: %+v", res)
	}
	if res.Snap.OpNumber != 10 || res.Snap.Counter != 100 {
		t.Fatalf("recovered %+v, want op 10 counter 100", res.Snap)
	}
}

func TestStoreDamagedCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, nil)
	for i := uint64(1); i <= 6; i++ {
		s.Append(testOp(i, "", 0))
	}
	s.Close()
	// Plant a garbage checkpoint; recovery must fall back to the log alone.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("MDCK\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, res := openStore(t, dir, nil)
	defer s2.Close()
	if res.CheckpointLoaded || !res.CheckpointDamaged {
		t.Fatalf("damaged checkpoint not flagged: %+v", res)
	}
	if res.Replayed != 6 || res.Snap.OpNumber != 6 {
		t.Fatalf("recovered %+v, want ops 1..6 from log", res.Snap)
	}
}

func TestStoreRecoveryDeterministic(t *testing.T) {
	// Same seed, same plan, same appends → byte-identical on-disk state and
	// identical recovery on both runs.
	var logs [2][]byte
	var snaps [2]Snapshot
	for run := 0; run < 2; run++ {
		dir := t.TempDir()
		inj, err := NewFaultInjector(1234, FaultPlan{
			{Kind: CorruptWrite, At: 9},
			{Kind: ShortWrite, At: 2, For: 3, SegmentBytes: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := openStore(t, dir, inj)
		for i := uint64(1); i <= 12; i++ {
			s.Append(testOp(i, "client-1", i))
		}
		s.Close()
		raw, err := os.ReadFile(filepath.Join(dir, "oplog"))
		if err != nil {
			t.Fatal(err)
		}
		logs[run] = raw
		_, res := openStore(t, dir, nil)
		snaps[run] = res.Snap
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("same seed+plan produced different on-disk logs")
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("same seed+plan recovered differently: %+v vs %+v", snaps[0], snaps[1])
	}
}

func TestStoreOpNumberGapTruncated(t *testing.T) {
	dir := t.TempDir()
	// Hand-build a log whose records skip an op number; recovery must stop
	// at the gap rather than silently applying past it.
	var buf bytes.Buffer
	buf.WriteString(logMagic)
	buf.WriteByte(version)
	for _, n := range []uint64{1, 2, 5} {
		rec := make([]byte, opRecordSize(testOp(n, "", 0)))
		encodeOpRecord(rec, testOp(n, "", 0))
		buf.Write(rec)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "oplog"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, res := openStore(t, dir, nil)
	defer s.Close()
	if !res.Truncated || res.Replayed != 2 || res.Snap.OpNumber != 2 {
		t.Fatalf("gap not truncated: %+v", res)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{{Kind: 0}},
		{{Kind: TornWrite, At: -1}},
		{{Kind: ShortWrite, At: 0}}, // missing SegmentBytes
	}
	for i, p := range bad {
		if _, err := NewFaultInjector(1, p); err == nil {
			t.Fatalf("plan %d accepted, want error", i)
		}
	}
	if err := (FaultPlan{}).Validate(); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
}

// logRecords counts the whole records in the log file as it is on disk now,
// without going through the store.
func logRecords(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "oplog"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for off := headerSize; off < len(raw); n++ {
		_, size, err := DecodeLogRecord(raw[off:])
		if err != nil {
			break
		}
		off += size
	}
	return n
}

// TestStoreFlushesOnDeadline: appends nobody waits for are in the file once
// the group-commit deadline has passed — not only after a Barrier or Close.
func TestStoreFlushesOnDeadline(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, nil)
	defer s.Close()
	for i := uint64(1); i <= 5; i++ {
		s.Append(testOp(i, "c1", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for logRecords(t, dir) != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 5 records on disk long after the %v flush deadline", logRecords(t, dir), flushDelay)
		}
		time.Sleep(flushDelay)
	}
}

// TestStoreExplicitFlushesAreImmediate: Barrier and Checkpoint do not wait
// for the deadline — when they return (Checkpoint: when a Barrier behind it
// returns) everything queued before them is in the files.
func TestStoreExplicitFlushesAreImmediate(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, nil)
	defer s.Close()
	s.Barrier() // let the start-up deadline pass its empty flush first
	for i := uint64(1); i <= 3; i++ {
		s.Append(testOp(i, "c1", i))
	}
	s.Barrier()
	if got := logRecords(t, dir); got != 3 {
		t.Fatalf("%d of 3 records on disk when Barrier returned", got)
	}
	s.Append(testOp(4, "c1", 4))
	s.Checkpoint(Snapshot{OpNumber: 4, Counter: 4})
	s.Append(testOp(5, "c1", 5))
	s.Barrier()
	if got := logRecords(t, dir); got != 1 {
		t.Fatalf("log holds %d records after a checkpoint and one append, want 1", got)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "checkpoint")); err != nil {
		t.Fatal(err)
	} else if snap, err := decodeCheckpointFile(raw); err != nil || snap.OpNumber != 4 {
		t.Fatalf("checkpoint on disk = %+v, %v", snap, err)
	}
}

// TestStoreGroupCommitsUnderLoad: two callers appending between other work
// share file writes. Waking the writer per append and flushing whatever it
// drained wrote about once per record on one P.
func TestStoreGroupCommitsUnderLoad(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), nil)
	const callers, each = 2, 2000
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := next.Add(1)
				s.Append(testOp(n, "c1", n))
				runtime.Gosched() // the writer gets to run between appends
			}
		}()
	}
	wg.Wait()
	s.Close()
	if s.Dropped() != 0 {
		t.Fatalf("%d appends dropped", s.Dropped())
	}
	t.Logf("%d appends in %d file writes", callers*each, s.fileWrites)
	if perWrite := float64(callers*each) / float64(s.fileWrites); perWrite < 20 {
		t.Fatalf("%.1f appends per file write, want >= 20", perWrite)
	}
}
