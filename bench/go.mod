module stpq/bench

go 1.22

require stpq v0.0.0

replace stpq => ../
