package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// unflagged returns a copy of a binary frame with binaryKindFlag cleared:
// the shape of a frame from a peer that does not speak the binary codec
// (the retired gob stream codec wrote the bare kind byte). The decoder
// must reject it.
func unflagged(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[0] &^= binaryKindFlag
	}
	return out
}

// fuzzSeeds returns two frames per message kind: the binary frame, and
// the same frame with the binary flag cleared, which must be rejected.
// The pairing keeps each kind's checked-in seed-NN files at the indices
// they were written at (the odd indices once held gob frames, which are
// still in testdata and still rejection seeds).
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	bin := NewBinaryEncoder()
	for _, env := range binaryEnvelopes() {
		b, err := bin.Encode(&env)
		if err != nil {
			tb.Fatalf("seed encode %s: %v", Kind(env.Msg), err)
		}
		seeds = append(seeds, append([]byte(nil), b...), unflagged(b))
	}
	return seeds
}

// fuzzExtraSeeds extends the corpus with frames the basic per-kind seeds
// miss: group-commit batches (Batch-built ClientTxn frames carry many
// tags in one envelope) and the two frame shapes a nemesis era produces
// on a real link — duplicated (self-concatenated) and truncated frames.
// Extras are appended AFTER fuzzSeeds so existing seed-NN files keep
// their indices.
func fuzzExtraSeeds(tb testing.TB) [][]byte {
	batch := NewBatch(77)
	if !batch.Add(BatchEntry{Tag: 1, Ops: IncrementOps("x", 1)}) ||
		!batch.Add(BatchEntry{Tag: 2, Ops: IncrementOps("y", -3)}) ||
		!batch.Add(BatchEntry{Tag: 3, Ops: IncrementOps("x", 2)}) {
		tb.Fatal("batch seed entries rejected")
	}
	env := Envelope{From: 4, To: 1, Msg: batch.Txn()}

	bin, err := NewBinaryEncoder().Encode(&env)
	if err != nil {
		tb.Fatalf("batch binary seed: %v", err)
	}
	dup := append(append([]byte(nil), bin...), bin...)
	var seeds [][]byte
	seeds = append(seeds, append([]byte(nil), bin...))
	seeds = append(seeds, unflagged(bin))
	seeds = append(seeds, dup)                                          // duplicate delivery
	seeds = append(seeds, append([]byte(nil), bin[:len(bin)/2]...))     // truncated mid-payload
	seeds = append(seeds, append([]byte(nil), bin[:FrameHeaderLen]...)) // header only
	seeds = append(seeds, unflagged(bin[:len(bin)/2]))                  // truncated, unflagged

	// Trace-context shapes: the same envelope with a context aboard, plus
	// frames cut inside the context uvarints — right after the kind tag
	// and routing bytes — so the fuzzer starts from the ctx decode path's
	// error branches, not only its happy path. (The ctx-absent shape is
	// every seed above.)
	tenv := env
	tenv.Ctx = tracedCtx
	tbin, err := NewBinaryEncoder().Encode(&tenv)
	if err != nil {
		tb.Fatalf("traced binary seed: %v", err)
	}
	seeds = append(seeds, append([]byte(nil), tbin...))
	seeds = append(seeds, unflagged(tbin))
	seeds = append(seeds, append([]byte(nil), tbin[:4]...)) // kind+From+To, ctx truncated away
	seeds = append(seeds, append([]byte(nil), tbin[:8]...)) // cut mid-ctx-uvarint
	seeds = append(seeds, unflagged(tbin[:4]))              // unflagged, cut before ctx completes
	return seeds
}

// allFuzzSeeds is the full seed set written to testdata and replayed by
// the mutation test.
func allFuzzSeeds(tb testing.TB) [][]byte {
	return append(fuzzSeeds(tb), fuzzExtraSeeds(tb)...)
}

// FuzzCodecRoundTrip drives the transport's decoder with arbitrary
// bytes. Properties: decoding never panics regardless of input; a frame
// without the binary flag never decodes; any frame that decodes
// successfully re-encodes deterministically and round-trips to an
// identical envelope.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, s := range allFuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := NewBinaryDecoder().Decode(data)
		if err != nil {
			return // garbage is allowed to fail, never to panic
		}
		if data[0]&binaryKindFlag == 0 {
			t.Fatalf("frame without the binary flag decoded as %#v", env)
		}
		enc := NewBinaryEncoder()
		b1, err := enc.Encode(&env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
		}
		env2, err := NewBinaryDecoder().Decode(b1)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		b2, err := NewBinaryEncoder().Encode(&env2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("binary encoding not deterministic:\n %x\nvs %x", b1, b2)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("binary round trip drifted:\n got %#v\nwant %#v", env2, env)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzCodecRoundTrip. Run with WRITE_FUZZ_CORPUS=1 after
// changing the wire format; corpus entries are go-fuzz v1 files.
// Regenerating replaces the gob-origin seeds at the odd indices with
// unflagged binary frames; both are rejection seeds.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCodecRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range allFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readCorpus loads the checked-in go-fuzz v1 seed files, so the mutation
// test exercises exactly what is committed rather than what the current
// generator produces.
func readCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCodecRoundTrip")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	corpus := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go-fuzz v1 file", e.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: unquote: %v", e.Name(), err)
		}
		corpus[e.Name()] = []byte(s)
	}
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	return corpus
}

// decodeGracefully runs one Decode and converts a panic into a test
// failure naming the offending mutation. A successful decode must also
// re-encode: the decoder may not hand upper layers an envelope the codec
// itself cannot represent.
func decodeGracefully(t *testing.T, name string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Decode panicked: %v (input %x)", name, r, data)
		}
	}()
	env, err := NewBinaryDecoder().Decode(data)
	if err != nil {
		return
	}
	if _, err := NewBinaryEncoder().Encode(&env); err != nil {
		t.Fatalf("%s: decoded envelope failed to re-encode: %v (%#v)", name, err, env)
	}
}

// TestDecoderGracefulOnMutations replays every corpus seed through the
// mutations a faulty nemesis-era link produces — truncation at every
// prefix length, duplicate (self-concatenated) delivery, and single-bit
// corruption at every position — and demands a graceful error, never a
// panic, from the transport's decoder.
func TestDecoderGracefulOnMutations(t *testing.T) {
	for name, seed := range readCorpus(t) {
		decodeGracefully(t, name, seed)
		for cut := 0; cut < len(seed); cut++ {
			decodeGracefully(t, fmt.Sprintf("%s[:%d]", name, cut), seed[:cut])
		}
		decodeGracefully(t, name+"+dup", append(append([]byte(nil), seed...), seed...))
		for i := 0; i < len(seed); i++ {
			for bit := 0; bit < 8; bit++ {
				m := append([]byte(nil), seed...)
				m[i] ^= 1 << bit
				decodeGracefully(t, fmt.Sprintf("%s^bit(%d,%d)", name, i, bit), m)
			}
		}
	}
}

// TestDecodeGarbage: every checked-in corpus seed whose first byte lacks
// the binary flag — the gob-origin seeds among them — is rejected by the
// decoder the transport uses, so a frame from a peer on another codec
// ends in a dropped connection (an omission), never in a misread
// message. Every binary-origin seed that decodes re-encodes to exactly
// the bytes it arrived as.
func TestDecodeGarbage(t *testing.T) {
	var rejected, canonical int
	for name, seed := range readCorpus(t) {
		env, err := NewBinaryDecoder().Decode(seed)
		if len(seed) == 0 || seed[0]&binaryKindFlag == 0 {
			if err == nil {
				t.Errorf("%s: unflagged frame decoded as %#v", name, env)
			}
			rejected++
			continue
		}
		if err != nil {
			continue // truncated or duplicated binary frame
		}
		b, err := NewBinaryEncoder().Encode(&env)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(b, seed) {
			t.Errorf("%s: re-encoded bytes differ:\n got %x\nwant %x", name, b, seed)
		}
		canonical++
	}
	if rejected == 0 || canonical == 0 {
		t.Fatalf("corpus lacks a shape: %d unflagged seeds, %d canonical binary seeds", rejected, canonical)
	}
	if _, err := NewBinaryDecoder().Decode([]byte("not a binary frame")); err == nil {
		t.Fatal("expected error decoding garbage")
	}
}
