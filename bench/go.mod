module efdedup/bench

go 1.23

require efdedup v0.0.0

replace efdedup => ../
