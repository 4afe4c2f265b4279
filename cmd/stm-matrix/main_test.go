package main

import "testing"

func TestTheoreticalMatrix(t *testing.T) {
	t.Parallel()
	if err := run(3, 2, 5); err != nil {
		t.Errorf("theoretical matrix failed: %v", err)
	}
	if err := run(0, 2, 5); err == nil {
		t.Error("invalid problem accepted")
	}
}
