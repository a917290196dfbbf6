module iyp/benchmark

go 1.24

require iyp v0.0.0

replace iyp => ../
