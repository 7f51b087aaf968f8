module planarflow/bench

go 1.22

require planarflow v0.0.0

replace planarflow => ../
