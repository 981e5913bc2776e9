package executor

import "cgdqp/internal/network"

// ExecOptions tune one execution. The zero value follows the build
// default: kernels on (off under -tags cgdqp_interp), plain wire
// encoding.
type ExecOptions struct {
	// NoKernels forces the row interpreter even where compiled columnar
	// kernels are available. Results, shipped bytes and audit logs are
	// identical either way; only speed differs.
	NoKernels bool
	// Wire configures the serialized batch encoding used at Ship
	// boundaries (e.g. compression). Both engines frame the shipped
	// stream into BatchSize-row frames and account the encoded size, so
	// the option changes shipped bytes identically in both.
	Wire network.WireOptions
	// nestedLoop runs every NLJoin/Join node as the nested-loop
	// operator, never on the hash-join path: the reference the hashed
	// path is checked against in tests.
	nestedLoop bool
}

// defaultExecOptions returns the options the non-Opts entry points run
// under.
func defaultExecOptions() ExecOptions {
	return ExecOptions{NoKernels: !kernelsDefault}
}

// kernels reports whether compiled kernels should be used.
func (o ExecOptions) kernels() bool { return !o.NoKernels }
