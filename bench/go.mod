module rpcv/bench

go 1.24

require rpcv v0.0.0

replace rpcv => ../
