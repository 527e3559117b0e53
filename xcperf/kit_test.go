package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/fault"
	"repro/internal/store"
)

// diskBytes sums the sizes of the regular files in dir.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

func TestCountingFSAgreesWithDisk(t *testing.T) {
	dir := t.TempDir()
	c := &countingFS{inner: fault.OS}
	chunk := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	if err := c.WriteFile(filepath.Join(dir, "a"), chunk(1000), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := c.CreateTemp(dir, "tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(chunk(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(chunk(100), 500); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(f.Name(), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	g, err := c.OpenFile(filepath.Join(dir, "c"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{300, 200} {
		if _, err := g.Write(chunk(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	got := c.counts()
	if want := diskBytes(t, dir); got.WriteBytes != want {
		t.Errorf("counted %d bytes written, %d on disk", got.WriteBytes, want)
	}
	if got.Writes != 5 || got.Syncs != 1 {
		t.Errorf("counted %d writes and %d syncs, want 5 and 1", got.Writes, got.Syncs)
	}

	if _, err := c.ReadFile(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b", "c"} {
		h, err := c.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(h); err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	if read := c.counts().sub(got); read.ReadBytes != diskBytes(t, dir) {
		t.Errorf("counted %d bytes read, %d on disk", read.ReadBytes, diskBytes(t, dir))
	}
}

// TestCountingFSSeesStoreDecodes checks the FS seam from the store's
// side: decoding an archive on a cache miss reads the file once.
func TestCountingFSSeesStoreDecodes(t *testing.T) {
	dir := t.TempDir()
	cat := newCatalog(3, 1, 0.02, 0, 0, "")
	d := cat.Docs[0]
	a, err := container.Split(d.XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, d.Name+store.Ext)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &countingFS{inner: fault.OS}
	st, err := store.Open(dir, store.Options{FS: c})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := c.counts()
	if _, err := st.Doc(d.Name); err != nil {
		t.Fatal(err)
	}
	if got := c.counts().sub(before).ReadBytes; got != int64(buf.Len()) {
		t.Errorf("decode read %d bytes through the FS, archive is %d on disk", got, buf.Len())
	}
}

// TestProbeCountsRepeat pins the layer probe's counts: one seed gives
// the same archive sizes, growth and pruning verdicts on every run.
func TestProbeCountsRepeat(t *testing.T) {
	cat := newCatalog(4, 1, 0.02, 0, 0, "")
	a, err := runProbe(cat, filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runProbe(cat, filepath.Join(t.TempDir(), "b"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.archiveBytes, b.archiveBytes) || !reflect.DeepEqual(a.xmlBytes, b.xmlBytes) ||
		a.decodedBytes != b.decodedBytes || a.growth != b.growth ||
		a.pruneRatio != b.pruneRatio || a.directRatio != b.directRatio || a.fallbacks != b.fallbacks {
		t.Errorf("probe counts differ between runs:\n%+v\n%+v", a, b)
	}
	if len(a.archiveBytes) != 8 || a.pruneRatio <= 0 || a.growth < 1 {
		t.Errorf("implausible probe counts: %+v", a)
	}
}
