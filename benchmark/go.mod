module wavelethist/benchmark

go 1.24

require wavelethist v0.0.0

replace wavelethist => ../
