package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctrpred/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/images.golden")

const imagesGolden = "images.golden"

// imageDigest hashes everything Build produces: every present line of the
// image (address and bytes, in ascending address order), the aging spans
// and the program bytes.
func imageDigest(img *mem.Memory, wl *Workload) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	img.ForEachLine(func(la uint64) {
		put(la)
		l := img.LineAt(la)
		h.Write(l[:])
	})
	put(uint64(img.TouchedLines()))
	for _, a := range wl.Ages {
		put(a.Base)
		put(uint64(a.Bytes))
		put(math.Float64bits(a.MeanUpdates))
		put(uint64(a.Spread))
		put(uint64(a.ChunkLines))
		put(uint64(a.Noise))
		put(math.Float64bits(a.StaticFrac))
	}
	put(wl.Prog.Base)
	h.Write(wl.Prog.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestImagesGolden pins every benchmark's built image, aging spans and
// program by sha256 against testdata/images.golden, over four footprints
// (the test scale, service scale, the single-run scale and the hit-rate
// figures' 8 MiB), two instruction budgets and seeds 1–4: one
// "bench/footprint/instructions/seed digest" line per build. An image
// builder may change how it writes and in what order, never what it
// writes or the order it draws from its rng. Regenerate with
//
//	go test ./internal/workload -run TestImagesGolden -update
//
// only when an intended change to a kernel's data alters the images.
func TestImagesGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		want = readGolden(t)
	}
	var out bytes.Buffer
	rows := 0
	for _, name := range Names() {
		for _, fp := range []int{64 << 10, 512 << 10, 1 << 20, 8 << 20} {
			for _, instr := range []uint64{5_000, 1_000_000} {
				for seed := uint64(1); seed <= 4; seed++ {
					key := fmt.Sprintf("%s/%dK/%d/%d", name, fp>>10, instr, seed)
					img := mem.New()
					wl, err := Build(name, Scale{Footprint: fp, Instructions: instr}, img, seed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					digest := imageDigest(img, wl)
					fmt.Fprintf(&out, "%s %s\n", key, digest)
					rows++
					if *updateGolden {
						continue
					}
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no digest in %s (run with -update)", key, imagesGolden)
					} else if digest != w {
						t.Errorf("%s: image digest %s, golden %s", key, digest, w)
					}
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", imagesGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != rows {
		t.Errorf("%s holds %d digests, want %d (run with -update)", imagesGolden, len(want), rows)
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", imagesGolden))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
