// Package faultsim is the soft-fault matrix of the storage stack.
// Where a crash kills the whole "machine", a soft fault fails
// individual I/O operations: a burst window armed on the session's
// simkit.Injector fails the data-path operations it covers, either
// transiently (a retry may succeed) or persistently.
//
// The package holds only tests. Each point is a crashsim.RunCrash run
// of the seeded workload with a burst and no crash budget, which
// checks that the engine contains the damage at the unit boundary:
//
//   - an open that the window fails is retried past it;
//   - a unit the burst fails is rolled back completely, live: the
//     engine equals the oracle of the committed units without a
//     reopen;
//   - a transient burst shorter than the retry budget is absorbed (no
//     failed open, unit, snapshot or checkpoint), and a harder one —
//     persistent, or transient across the whole retry budget —
//     surfaces as a failure, never as a wrong answer;
//   - after the workload the disarmed engine runs new DML and its live
//     indexes equal their rebuild from base data;
//   - then the power is cut, and the recovered database passes
//     crashsim's recovery audit: every invariant, equality with the
//     committed units, the ASOF history and continued usability.
//
// TestConcurrentReadersDuringAbort adds readers racing the rollbacks.
package faultsim
