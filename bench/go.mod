// The benchmark is a module of its own so that it builds from its own
// build file. Its path sits under the repository module's path, which
// is what lets it import xquec/internal/...; the replace points at the
// checkout it was copied into.
module xquec/bench

go 1.23

require xquec v0.0.0

replace xquec => ../
