module mead/bench

go 1.22

require mead v0.0.0

replace mead => ../
