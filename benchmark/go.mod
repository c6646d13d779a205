module github.com/tarm-project/tarm/benchmark

go 1.22

require github.com/tarm-project/tarm v0.0.0

replace github.com/tarm-project/tarm => ../
