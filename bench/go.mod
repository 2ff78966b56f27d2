module shredder/bench

go 1.22

require shredder v0.0.0

replace shredder => ../
