module infilter/benchmark

go 1.22

require infilter v0.0.0

replace infilter => ../
