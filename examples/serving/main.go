// Example serving: run the serve subsystem in-process — publish a
// histogram into the versioned registry, query it over the HTTP API,
// stream updates, and watch the registry version advance as the
// maintainer republishes.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"wavelethist"
	"wavelethist/serve"
)

func main() {
	// A query-serving layer in three steps: build, publish, serve.
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 19, Domain: 1 << 14, Alpha: 1.1, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := wavelethist.Build(ds, wavelethist.TwoLevelS, wavelethist.Options{K: 120, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	s, err := serve.NewServer(serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.Registry().Publish("clicks", res.Histogram); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	fmt.Printf("registry version %d, serving %v\n",
		s.Registry().Version(), s.Registry().Snapshot().Names())

	// Point and range estimates over HTTP.
	fmt.Println("point key=7:   ", get(ts.URL+"/v1/hist/clicks/point?key=7"))
	fmt.Println("range [0,8191]:", get(ts.URL+"/v1/hist/clicks/range?lo=0&hi=8191"))

	// A batch amortizes HTTP overhead across many estimates.
	batch := map[string]any{"queries": []map[string]any{
		{"op": "point", "key": 7},
		{"op": "range", "lo": 0, "hi": 1023},
		{"op": "range", "lo": 1024, "hi": 2047},
	}}
	fmt.Println("batch:         ", post(ts.URL+"/v1/hist/clicks/query", batch))

	// Stream updates; every 256th makes the maintainer republish the
	// adapted top-k.
	ups := make([]map[string]any, 256)
	for i := range ups {
		ups[i] = map[string]any{"key": i % 16, "delta": 50}
	}
	fmt.Println("updates:       ", post(ts.URL+"/v1/hist/clicks/updates",
		map[string]any{"updates": ups}))
	fmt.Println("stats:         ", get(ts.URL+"/v1/stats"))
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(bytes.TrimSpace(b))
}

func post(url string, v any) string {
	b, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return string(bytes.TrimSpace(out))
}
