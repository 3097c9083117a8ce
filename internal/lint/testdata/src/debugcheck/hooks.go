// Package debugcheck is the batchlint debugcheck fixture: tests that
// sweep the shared propertyConfigs matrix must arm the debug hook.
package debugcheck

var DebugVerifyShadows bool

// traceSweeps is not a hook: setting it arms nothing.
var traceSweeps bool

type config struct{ policy int }

func propertyConfigs() []config {
	return []config{{0}, {1}}
}
