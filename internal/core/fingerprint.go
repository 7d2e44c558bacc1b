package core

// Check fingerprints give every assertion a position-independent identity
// derived from its sliced constraint system: the formula B_i is fully
// determined by the assertion's bound, guard, argument expressions, and
// equation prefix (plus the prefix's branch variables), so hashing those
// — via their canonical, source-position-free String renderings — yields
// a key that is stable under edits that do not touch the assertion's
// constraint slice. The incremental planner persists the fingerprints of
// assertions proved safe; a later run passes them back through
// Options.KnownSafeChecks and Solve skips the SAT search for any
// assertion whose fingerprint still matches.
//
// Soundness: everything that decides B_i's satisfiability is covered.
// Renamed expressions print as "name@idx" (no positions), guards print
// over branch IDs, constants print lattice element names and labels, and
// every component is length-prefixed so distinct structures cannot
// collide by concatenation. Lattice and prelude changes are excluded on
// purpose — the incremental store already discards its graph when the
// configuration fingerprint changes, so a fingerprint is only ever
// compared under an identical prelude.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"webssari/internal/constraint"
)

// checkFingerprintLen is the length of the hex digest kept per check: 24
// hex chars = 96 bits, far beyond collision range for per-file assertion
// counts.
const checkFingerprintLen = 24

func fpWriteStr(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func fpWriteInt(h hash.Hash, v int) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(int64(v)))
	h.Write(n[:])
}

// CheckFingerprint hashes the idx-th assertion's sliced constraint
// system into its reuse key.
func CheckFingerprint(sys *constraint.System, idx int) string {
	c := sys.Checks[idx]
	h := sha256.New()
	fpWriteStr(h, "webssari-check-v1")
	fpWriteInt(h, int(c.Origin.Bound))
	fpWriteStr(h, c.Guard.String())
	fpWriteInt(h, len(c.Origin.Args))
	for _, a := range c.Origin.Args {
		fpWriteInt(h, a.ArgPos)
		fpWriteStr(h, a.Expr.String())
	}
	fpWriteInt(h, c.Prefix)
	for _, eq := range sys.Equations[:c.Prefix] {
		fpWriteStr(h, eq.String())
	}
	marks := sys.PrefixBranches(c)
	fpWriteInt(h, len(marks))
	for _, m := range marks {
		fpWriteInt(h, m.ID)
	}
	return hex.EncodeToString(h.Sum(nil))[:checkFingerprintLen]
}

// fingerprintsOf computes the fingerprint of every check in order.
func fingerprintsOf(sys *constraint.System) []string {
	out := make([]string, len(sys.Checks))
	for i := range sys.Checks {
		out[i] = CheckFingerprint(sys, i)
	}
	return out
}

// CheckFingerprints returns the fingerprint of every assertion in the
// Program, in check order. The slice is computed once per Program —
// cached Programs are solved concurrently, hence the sync.Once — and
// must not be mutated.
func (p *Program) CheckFingerprints() []string {
	p.fpOnce.Do(func() { p.fps = fingerprintsOf(p.System) })
	return p.fps
}
