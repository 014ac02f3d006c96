package segment

import (
	"errors"
	"time"

	"repro/internal/dberr"
)

// TransientError marks an error as transient: the failed operation may
// succeed if simply retried (EINTR-style hiccups, short I/O stalls).
// Fault-injecting stores implement it to exercise the retry path.
type TransientError interface {
	error
	Transient() bool
}

// IsTransient reports whether err (or anything it wraps) declares
// itself transient. Corruption is always permanent: re-reading a
// rotted page returns the same bytes, so burning the retry budget on
// it only delays the quarantine — even if a fault-injecting store
// also tags the error as transient.
func IsTransient(err error) bool {
	if errors.Is(err, dberr.ErrCorrupt) {
		return false
	}
	var te TransientError
	return errors.As(err, &te) && te.Transient()
}

// RetryPolicy bounds the automatic retries of transient store faults.
// Tries is the total number of attempts per operation (1 = no
// retries); Backoff is the initial sleep between attempts, doubling
// each time.
type RetryPolicy struct {
	Tries   int
	Backoff time.Duration
}

// DefaultRetry is the policy the engine applies to its stores and log
// file: up to 4 attempts with 1ms initial backoff.
var DefaultRetry = RetryPolicy{Tries: 4, Backoff: time.Millisecond}

// Do runs op, retrying transient failures per the policy. The final
// error (transient or not) is returned unchanged.
func (p RetryPolicy) Do(op func() error) error {
	tries := p.Tries
	if tries < 1 {
		tries = 1
	}
	backoff := p.Backoff
	var err error
	for attempt := 0; attempt < tries; attempt++ {
		if attempt > 0 && backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}

// retryStore wraps a Store, retrying transient faults on every
// fallible operation.
type retryStore struct {
	st Store
	p  RetryPolicy
}

// WithRetry wraps st so transient faults are retried per the policy.
// A policy with Tries <= 1 returns st unchanged.
func WithRetry(st Store, p RetryPolicy) Store {
	if p.Tries <= 1 {
		return st
	}
	return &retryStore{st: st, p: p}
}

func (r *retryStore) ReadPage(no uint32, buf []byte) error {
	return r.p.Do(func() error { return r.st.ReadPage(no, buf) })
}

func (r *retryStore) WritePage(no uint32, buf []byte) error {
	return r.p.Do(func() error { return r.st.WritePage(no, buf) })
}

func (r *retryStore) Sync() error {
	return r.p.Do(func() error { return r.st.Sync() })
}

// Allocate is retried like a write: a failed allocation reserves no
// page, so another attempt reserves the same one.
func (r *retryStore) Allocate() (no uint32, err error) {
	err = r.p.Do(func() (e error) { no, e = r.st.Allocate(); return e })
	return no, err
}

func (r *retryStore) PageCount() uint32 { return r.st.PageCount() }
func (r *retryStore) Close() error      { return r.st.Close() }
