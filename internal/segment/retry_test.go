package segment

import (
	"errors"
	"testing"

	"repro/internal/page"
)

// blinkErr is a transient fault; stoneErr is not.
type blinkErr struct{}

func (blinkErr) Error() string   { return "blink" }
func (blinkErr) Transient() bool { return true }

var stoneErr = errors.New("stone")

// flakyStore fails the next `fail` operations with err, then works.
type flakyStore struct {
	*MemStore
	fail  int
	err   error
	calls int
}

func (f *flakyStore) step() error {
	f.calls++
	if f.fail > 0 {
		f.fail--
		return f.err
	}
	return nil
}

func (f *flakyStore) ReadPage(no uint32, buf []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.MemStore.ReadPage(no, buf)
}

func (f *flakyStore) WritePage(no uint32, buf []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.MemStore.WritePage(no, buf)
}

func (f *flakyStore) Sync() error {
	if err := f.step(); err != nil {
		return err
	}
	return f.MemStore.Sync()
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(blinkErr{}) {
		t.Fatal("blinkErr should be transient")
	}
	if IsTransient(stoneErr) || IsTransient(nil) {
		t.Fatal("stoneErr and nil are not transient")
	}
	// Classification must survive wrapping.
	if !IsTransient(errors.Join(errors.New("ctx"), blinkErr{})) {
		t.Fatal("wrapped transient error lost its classification")
	}
}

func TestRetryAbsorbsTransientBurst(t *testing.T) {
	fs := &flakyStore{MemStore: NewMemStore(), fail: 3, err: blinkErr{}}
	st := WithRetry(fs, RetryPolicy{Tries: 4})
	no, _ := st.Allocate()
	buf := make([]byte, page.Size)
	buf[0] = 0xAB
	if err := st.WritePage(no, buf); err != nil {
		t.Fatalf("burst of 3 should be absorbed by 4 tries: %v", err)
	}
	if fs.calls != 4 {
		t.Fatalf("expected 4 attempts, saw %d", fs.calls)
	}
	got := make([]byte, page.Size)
	if err := st.ReadPage(no, got); err != nil || got[0] != 0xAB {
		t.Fatalf("read back: %v, byte %x", err, got[0])
	}
}

func TestRetryGivesUpAfterTries(t *testing.T) {
	fs := &flakyStore{MemStore: NewMemStore(), fail: 10, err: blinkErr{}}
	st := WithRetry(fs, RetryPolicy{Tries: 4})
	no, _ := st.Allocate()
	err := st.WritePage(no, make([]byte, page.Size))
	if !IsTransient(err) {
		t.Fatalf("exhausted retries must surface the transient error, got %v", err)
	}
	if fs.calls != 4 {
		t.Fatalf("expected exactly 4 attempts, saw %d", fs.calls)
	}
}

func TestRetryDoesNotRetryPersistent(t *testing.T) {
	fs := &flakyStore{MemStore: NewMemStore(), fail: 10, err: stoneErr}
	st := WithRetry(fs, RetryPolicy{Tries: 4})
	no, _ := st.Allocate()
	if err := st.WritePage(no, make([]byte, page.Size)); !errors.Is(err, stoneErr) {
		t.Fatalf("want stoneErr, got %v", err)
	}
	if fs.calls != 1 {
		t.Fatalf("persistent errors must not be retried, saw %d attempts", fs.calls)
	}
}

func TestRetryDisabled(t *testing.T) {
	fs := &flakyStore{MemStore: NewMemStore(), fail: 1, err: blinkErr{}}
	st := WithRetry(fs, RetryPolicy{Tries: 1})
	if st != Store(fs) {
		t.Fatal("Tries of 1 should return the store unwrapped")
	}
}
