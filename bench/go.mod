module phpf/bench

go 1.22

require phpf v0.0.0

replace phpf => ../
