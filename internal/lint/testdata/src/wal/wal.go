// Package wal is a stand-in for camelot/internal/wal with the method
// set the tracepair analyzer matches on.
package wal

type Log struct{}

func (*Log) Force(lsn uint64) error { return nil }
