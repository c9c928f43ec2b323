package main

import "testing"

// -seed drives every generator: the same seed gives the same dataset and
// op list, another seed gives another.
func TestSeedDrivesTheDigest(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := generate(name, 5, shortSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 5, shortSizes)
		c, _ := generate(name, 6, shortSizes)
		if a.digest != b.digest {
			t.Errorf("%s: seed 5 twice gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 5 and 6 share digest %s", name, a.digest)
		}
	}
}
