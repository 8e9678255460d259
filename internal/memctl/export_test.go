package memctl

// CompareEntriesOracle exposes the compare-path pass oracle to the
// external-package tests (probe_test.go), which need package chaos and
// so cannot live inside package memctl.
var CompareEntriesOracle = compareEntriesOracle
