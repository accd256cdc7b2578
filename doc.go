// Package udi is a from-scratch Go reproduction of "Bootstrapping
// Pay-As-You-Go Data Integration Systems" (SIGMOD 2008): the first
// completely self-configuring data integration system, built on
// probabilistic mediated schemas and maximum-entropy probabilistic schema
// mappings.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); cmd/udi (the CLI), cmd/udiserver (the HTTP server) and
// cmd/experiments (the paper's evaluation) are the executables. The
// paper's motivating example is a checked Example in internal/core and a
// test in internal/answer. The benchmarks in bench_test.go regenerate
// every table and figure of the paper's evaluation.
package udi
