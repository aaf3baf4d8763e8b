module asyncagree/benchmark

go 1.24

require asyncagree v0.0.0

replace asyncagree => ../
