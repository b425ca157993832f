module streamsched/bench

go 1.24

require streamsched v0.0.0

replace streamsched => ../
