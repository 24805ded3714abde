module ramsis/bench

go 1.22

require ramsis v0.0.0

replace ramsis => ../
