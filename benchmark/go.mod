module jxta/benchmark

go 1.24

require jxta v0.0.0

replace jxta => ../
