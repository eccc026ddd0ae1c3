module squirrel/bench

go 1.22

require squirrel v0.0.0

replace squirrel => ../
