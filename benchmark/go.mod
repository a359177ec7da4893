module resilientdb/benchmark

go 1.22

require resilientdb v0.0.0

replace resilientdb => ../
