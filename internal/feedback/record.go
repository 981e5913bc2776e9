package feedback

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// maxReportedOps bounds the per-query q-error list handed to the slow
// log (worst offenders first).
const maxReportedOps = 8

// OpQError is one operator's estimate-vs-actual outcome, as reported in
// the slow-query log.
type OpQError struct {
	Op     string  `json:"op"`
	Digest string  `json:"digest"` // short hash of the subplan digest
	Est    float64 `json:"est"`
	Actual float64 `json:"actual"`
	QError float64 `json:"qerror"`
}

// RecordExecution walks an executed located plan with its profile,
// feeds every operator's (estimate, actual) into the store under its
// canonical subplan digest, and returns the per-operator q-errors
// sorted worst-first (capped at maxReportedOps) for the slow-query log.
// The store may be nil (slow-log-only mode); the q-errors are still
// computed. Rules that keep the actuals trustworthy:
//
//   - Ship nodes are digest-transparent and not recorded — a shipped
//     stream has its producer's cardinality.
//   - Subtrees under a Limit are skipped: early termination truncates
//     their actuals below the true cardinality.
//   - Re-opened operators (NL-join inner sides) accumulate rows across
//     opens, so the actual is normalized per open.
//   - An operator is used only when every open reached end of stream:
//     a consumer that stopped pulling early (a hash join skips draining
//     its build side behind an empty probe) leaves Rows short of the
//     cardinality, and a never-opened operator has no actual at all.
//   - Binary joins are recorded under both child orders; a join's
//     output cardinality does not depend on which side builds.
func RecordExecution(s *Store, root *plan.Node, prof *obs.PlanProfile) []OpQError {
	if root == nil || prof == nil {
		return nil
	}
	var out []OpQError
	var rec func(n *plan.Node, underLimit bool) string
	rec = func(n *plan.Node, underLimit bool) string {
		if n.Kind == plan.Ship && len(n.Children) == 1 {
			return rec(n.Children[0], underLimit)
		}
		below := underLimit || n.Kind.Canon() == plan.Limit
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = rec(c, below)
		}
		var b strings.Builder
		b.WriteString(n.CanonOpDigest())
		b.WriteByte('(')
		for i, d := range kids {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(d)
		}
		b.WriteByte(')')
		digest := b.String()

		if underLimit {
			return digest
		}
		st := prof.Peek(n)
		if !st.Complete() {
			return digest
		}
		opens := st.Opens.Load()
		actual := float64(st.Rows.Load()) / float64(opens)
		est := n.Card
		s.ObserveOperator(digest, est, actual)
		if n.Kind.Canon() == plan.Join && len(kids) == 2 {
			swapped := n.CanonOpDigest() + "(" + kids[1] + "," + kids[0] + ")"
			s.ObserveOperator(swapped, est, actual)
		}
		out = append(out, OpQError{
			Op:     n.Kind.Canon().String(),
			Digest: ShortDigest(digest),
			Est:    est,
			Actual: actual,
			QError: QError(est, actual),
		})
		return digest
	}
	rec(root, false)
	sort.SliceStable(out, func(i, j int) bool { return out[i].QError > out[j].QError })
	if len(out) > maxReportedOps {
		out = out[:maxReportedOps]
	}
	return out
}

// SQLDigest returns a short stable digest of a statement's text for log
// correlation.
func SQLDigest(sql string) string {
	h := fnv.New64a()
	h.Write([]byte(sql))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ShortDigest compresses a (potentially long) plan or subplan digest
// string into a fixed-width hash for log lines.
func ShortDigest(digest string) string {
	h := fnv.New64a()
	h.Write([]byte(digest))
	return fmt.Sprintf("%016x", h.Sum64())
}
