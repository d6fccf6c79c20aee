// The benchmark is a module of its own so that it builds from the
// benchmark directory alone plus the repository it measures. Its module
// path sits under eventspace/, which is what lets it import
// eventspace/internal/...; the replace directive points at the checkout
// it lives in.
module eventspace/benchmark

go 1.22

require eventspace v0.0.0

replace eventspace => ../
