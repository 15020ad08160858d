// Package blobdir is a directory of immutable, content-addressed files:
// the one disk store behind every cache tier (runcache results and
// decision plans, the fleet's blob shards). A file is named by the hex of
// its 32-byte key plus a caller-chosen suffix that spells out the
// caller's format versions, so a format change orphans old files instead
// of misreading them. Files are published atomically, so concurrent
// readers — other goroutines or other processes sharing the directory —
// only ever see complete entries.
//
// The package moves bytes only: decoding, validation and logging stay
// with the callers, each of which treats any error here as a cache miss.
package blobdir

import (
	"encoding/hex"
	"os"
	"path/filepath"
)

// Dir is one store directory. A nil *Dir is a valid, absent store: it
// reads every key as a miss and drops every write.
type Dir struct {
	path string
}

// Open returns the store rooted at path, creating the directory if needed.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &Dir{path: path}, nil
}

// Path names the file holding key under suffix.
func (d *Dir) Path(key [32]byte, suffix string) string {
	return filepath.Join(d.path, hex.EncodeToString(key[:])+suffix)
}

// Read returns the file's bytes, or (nil, nil) when it is absent, or
// (nil, err) when it cannot be read. A present but empty file reads as a
// non-nil empty slice, so callers can tell it (a damaged entry) from a
// miss.
func (d *Dir) Read(key [32]byte, suffix string) ([]byte, error) {
	if d == nil {
		return nil, nil
	}
	data, err := os.ReadFile(d.Path(key, suffix))
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, err
	case data == nil:
		return []byte{}, nil
	}
	return data, nil
}

// Write publishes data under key: it is written to a temp file in the
// same directory and renamed into place, and the temp file is removed on
// any failure.
func (d *Dir) Write(key [32]byte, suffix string, data []byte) error {
	if d == nil {
		return nil
	}
	tmp, err := os.CreateTemp(d.path, ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.Path(key, suffix))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
