package exec

import (
	"testing"
	"unsafe"
)

// TestCursorFitsSizeClass: a query's cursor, its inline iterator
// included, is at most 512 bytes. Go allocates an object of up to 512
// bytes with its pointer bitmap in the span; a larger one takes a malloc
// header and the slower path, once per statement.
func TestCursorFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Cursor{}); n > 512 {
		t.Errorf("exec.Cursor is %d bytes, more than 512", n)
	}
}
