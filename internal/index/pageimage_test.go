package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"
)

// The page images and the Meta BuildFeatureIndex and Save write are pinned
// by hash: an SRT and an IR² tree of 128 keywords, whose inner slots keep
// score tables, and an SRT tree of 300 keywords, above MaxLevelWidth, whose
// inner slots keep e.s and e.W, each with a pair signature with tokens. A
// change that moves a byte of any page, or a field of the Meta, fails here.
func TestPageImagesPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		kind  Kind
		width int
		dump  string
		meta  string
	}{
		{"srt-128", SRT, 128, "e135ade036495602496e18a30fb0b6931761a8d30964c8d9eb95e157d27e53ab",
			`{"tree":{"root":39,"height":3,"size":3000},"kind":0,"vocabWidth":128,"pageSize":4096,"withScore":true,"pairBits":512,"levelBits":4,"pairTokens":true}`},
		{"ir2-128", IR2, 128, "e7b1b4317c19176272394dad346a1651a847343e486cd246073193670c21405c",
			`{"tree":{"root":39,"height":3,"size":3000},"kind":1,"vocabWidth":128,"pageSize":4096,"withScore":true,"pairBits":512,"levelBits":4,"pairTokens":true}`},
		{"srt-300", SRT, 300, "6188590fd06f110240a60a91667cd6b4c9a8a6fbe712044216166252fdcf70c0",
			`{"tree":{"root":57,"height":3,"size":3000},"kind":0,"vocabWidth":300,"pageSize":4096,"withScore":true,"pairBits":512,"pairTokens":true}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(59))
			idx, err := BuildFeatureIndex(randomFeatures(rng, 3000, c.width), Options{Kind: c.kind, VocabWidth: c.width, PageSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			if idx.Tree().Height() < 3 {
				t.Fatalf("height %d: want inner pages above inner pages", idx.Tree().Height())
			}
			var buf bytes.Buffer
			meta, err := idx.Save(&buf)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.dump {
				t.Errorf("page dump of %d bytes hashes to %s, pinned %s", buf.Len(), got, c.dump)
			}
			js, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			if string(js) != c.meta {
				t.Errorf("Meta is %s, pinned %s", js, c.meta)
			}
		})
	}
}
