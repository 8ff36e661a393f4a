module edr/bench

go 1.22

require edr v0.0.0

replace edr => ../
