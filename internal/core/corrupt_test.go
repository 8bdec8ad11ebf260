package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bp"
)

// These tests corrupt stored products in place and check the reader fails
// loudly instead of returning silently wrong science.

// corruptMeta builds a metadata container with one attribute dropped or
// replaced.
func corruptMeta(t *testing.T, drop string, replace map[string]string) []byte {
	t.Helper()
	w := bp.NewWriter()
	base := map[string]string{
		"name": "dpot", "mode": "delta", "levels": "3", "codec": "zfp",
		"tolerance": "1e-6", "estimator": "mean", "raw-bytes": "100",
	}
	for k, v := range replace {
		base[k] = v
	}
	delete(base, drop)
	for k, v := range base {
		w.SetAttr(k, v)
	}
	return w.Bytes()
}

func TestOpenReaderRejectsCorruptMetadata(t *testing.T) {
	cases := []struct {
		name    string
		drop    string
		replace map[string]string
		wantErr string
	}{
		{"missing mode", "mode", nil, "missing mode"},
		{"missing levels", "levels", nil, "missing levels"},
		{"missing codec", "codec", nil, "missing codec"},
		{"missing tolerance", "tolerance", nil, "missing tolerance"},
		{"missing estimator", "estimator", nil, "missing estimator"},
		{"bad mode", "", map[string]string{"mode": "sideways"}, "unknown mode"},
		{"bad levels", "", map[string]string{"levels": "zero"}, "bad levels"},
		{"negative levels", "", map[string]string{"levels": "-2"}, "bad levels"},
		{"too many levels", "", map[string]string{"levels": "65"}, "bad levels"},
		{"bad tolerance", "", map[string]string{"tolerance": "wat"}, "bad tolerance"},
		{"bad codec", "", map[string]string{"codec": "lzma"}, "unknown codec"},
		{"bad estimator", "", map[string]string{"estimator": "cubic"}, "unknown estimator"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			aio := newIO()
			ds := testDataset("dpot", 8)
			if _, err := Write(context.Background(), aio, ds, Options{Levels: 3}); err != nil {
				t.Fatal(err)
			}
			// Overwrite the metadata container in place.
			blob := corruptMeta(t, c.drop, c.replace)
			if _, err := aio.H.Put(context.Background(), metaKey("dpot"), blob, 0, 1); err != nil {
				t.Fatal(err)
			}
			_, err := OpenReader(context.Background(), aio, "dpot")
			if err == nil {
				t.Fatalf("OpenReader accepted metadata with %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestRetrieveRejectsMissingLevelContainer(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 10)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	if err := aio.H.Delete(levelKey("dpot", 1)); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Retrieve(context.Background(), 0); err == nil {
		t.Fatal("Retrieve succeeded with a missing level container")
	}
	// The base is still intact and must keep working.
	if _, err := rd.Base(context.Background()); err != nil {
		t.Fatalf("Base failed after unrelated level loss: %v", err)
	}
}

func TestRetrieveRejectsCorruptLevelPayload(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 10)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 2}); err != nil {
		t.Fatal(err)
	}
	key := levelKey("dpot", 0)
	blob, _, err := aio.H.Get(context.Background(), key, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the container payload.
	for i := len(blob) / 3; i < len(blob)/3+16 && i < len(blob); i++ {
		blob[i] ^= 0xFF
	}
	if _, err := aio.H.Put(context.Background(), key, blob, 1, 1); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Retrieve(context.Background(), 0); err == nil {
		t.Fatal("Retrieve decoded a corrupted container without error")
	}
}

func TestReaderMissingTileFrame(t *testing.T) {
	// A delta container whose tile-frame attribute vanished (e.g. written
	// by an incompatible tool) must fail cleanly during augmentation.
	aio := newIO()
	ds := testDataset("dpot", 10)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 2}); err != nil {
		t.Fatal(err)
	}
	// Rebuild the level-0 container without the tile-frame attribute.
	key := levelKey("dpot", 0)
	blob, _, err := aio.H.Get(context.Background(), key, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	w := bp.NewWriter()
	for _, v := range r.Vars() {
		raw, err := r.ReadBytes(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PutBytes(v.Name, v.Level, raw, v.Attrs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := aio.H.Put(context.Background(), key, w.Bytes(), 1, 1); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Retrieve(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "tile-frame") {
		t.Fatalf("err = %v, want tile-frame complaint", err)
	}
}
