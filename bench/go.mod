module github.com/urbandata/datapolygamy/bench

go 1.24

require github.com/urbandata/datapolygamy v0.0.0

replace github.com/urbandata/datapolygamy => ../
