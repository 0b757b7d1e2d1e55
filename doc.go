// Package camelotrepro is the root of a reproduction of "Analysis of
// Transaction Management Performance" (Dan Duchamp, SOSP 1989): the
// Camelot distributed transaction facility's transaction manager, its
// commitment protocols, and every experiment in the paper's
// evaluation.
//
// The public library lives in camelot/camelot; the substrates
// (simulation kernel, write-ahead log, lock manager, transports,
// communication manager, recovery) are under internal/. See README.md
// for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record.
// cmd/camelot-bench regenerates each table and figure in the paper's
// layout.
package camelotrepro
