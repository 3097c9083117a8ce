module gpucluster/bench

go 1.23

require gpucluster v0.0.0

replace gpucluster => ../
