package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden holds the program's stdout byte for byte to the committed
// golden, recorded with: go run ./examples/quickstart > examples/quickstart/testdata/golden.txt
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout drifted from testdata/golden.txt:\n%s", got.Bytes())
	}
}
