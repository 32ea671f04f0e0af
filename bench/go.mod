module eum/bench

go 1.22

require eum v0.0.0

replace eum => ../
