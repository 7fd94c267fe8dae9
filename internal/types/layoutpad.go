//go:build layoutpad

package types

// layoutPadded is set by this file's one function, which shifts every later
// function by 32 bytes: a second code layout to check performance claims at.
var layoutPadded bool

func init() { layoutPadded = true }
