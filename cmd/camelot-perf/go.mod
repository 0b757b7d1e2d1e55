module camelot/cmd/camelot-perf

go 1.22

require camelot v0.0.0

replace camelot => ../..
