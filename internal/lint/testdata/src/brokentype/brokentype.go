// Package brokentype is the regression fixture for type errors: it
// parses and its imports resolve, but it does not type-check, so the go
// command cannot build its export data and go list -e -export reports it
// with a per-package Error, which Load must surface as a *LoadError.
package brokentype

var Count int = "not a number"
