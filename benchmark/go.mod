module xmlordb/benchmark

go 1.22

require xmlordb v0.0.0

replace xmlordb => ../
