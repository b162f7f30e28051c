module threedess/bench

go 1.24

require threedess v0.0.0

replace threedess => ../
