// Command wavegen generates binary key datasets (Zipfian or WorldCup-like
// access logs) as local files of little-endian records, the input format
// cmd/wavehist consumes.
//
// Usage:
//
//	wavegen -out data.bin -kind zipf -n 1048576 -u 65536 -alpha 1.1
//	wavegen -out wc.bin -kind worldcup -n 1048576 -clientbits 8 -objectbits 8
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"wavelethist/internal/datagen"
)

func main() {
	var (
		out        = flag.String("out", "", "output file (required)")
		kind       = flag.String("kind", "zipf", "dataset kind: zipf | worldcup")
		n          = flag.Int64("n", 1<<20, "number of records")
		u          = flag.Int64("u", 1<<16, "key domain size (power of two; zipf)")
		alpha      = flag.Float64("alpha", 1.1, "zipf skew")
		seed       = flag.Uint64("seed", 1, "random seed")
		recordSize = flag.Int("record-size", 4, "record size in bytes (>= 4)")
		clientBits = flag.Uint("clientbits", 10, "worldcup: clients = 2^clientbits")
		objectBits = flag.Uint("objectbits", 10, "worldcup: objects = 2^objectbits")
		permute    = flag.Bool("permute", true, "scatter frequency ranks across the key domain")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "wavegen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*out, *kind, *n, *u, *alpha, *seed, *recordSize, *clientBits, *objectBits, *permute); err != nil {
		fmt.Fprintln(os.Stderr, "wavegen:", err)
		os.Exit(1)
	}
}

func run(out, kind string, n, u int64, alpha float64, seed uint64,
	recordSize int, clientBits, objectBits uint, permute bool) error {
	if recordSize < 4 {
		return fmt.Errorf("record size must be >= 4")
	}
	// The keys are datagen's, so a file written here holds the dataset
	// the library and the daemons generate from the same recipe.
	var (
		next   func() int64
		domain int64
		err    error
	)
	switch kind {
	case "zipf":
		domain = u
		next, err = datagen.ZipfKeys(datagen.ZipfSpec{
			N: n, U: u, Alpha: alpha, RecordSize: recordSize, Seed: seed, PermuteKeys: permute,
		})
	case "worldcup":
		spec := datagen.NewWorldCupSpec(n, seed)
		spec.ClientBits, spec.ObjectBits = clientBits, objectBits
		domain = spec.U()
		next, err = datagen.WorldCupKeys(spec)
	default:
		err = fmt.Errorf("unknown kind %q (zipf | worldcup)", kind)
	}
	if err != nil {
		return err
	}
	keyWidth := 4
	if recordSize >= 8 && domain > 1<<32 {
		keyWidth = 8
	}
	if domain > 1<<32 && keyWidth == 4 {
		return fmt.Errorf("domain %d needs -record-size >= 8", domain)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	rec := make([]byte, recordSize)
	for i := int64(0); i < n; i++ {
		if keyWidth == 8 {
			binary.LittleEndian.PutUint64(rec, uint64(next()))
		} else {
			binary.LittleEndian.PutUint32(rec, uint32(next()))
		}
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d records (%d bytes each, domain %d) to %s\n", n, recordSize, domain, out)
	return nil
}
