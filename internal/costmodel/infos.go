package costmodel

// MaxSampleValues bounds the per-container sample used for measuring
// algorithm behaviour and similarity.
const MaxSampleValues = 512

// Infos builds the ContainerInfo of every textual value path from its
// values in document order, the paths in the order their first values
// appear. The paths and values are what the loader measured: a parsed
// document's lists or a store's decoded ones, restricted to the
// workload's paths and with the typed ones left out (storage's
// Values.Textual) — §3's footnote 5 leaves containers no query involves
// out of the search, and the paper restricts it to "the set of
// non-numerical (textual) containers". The samples are views of values.
func Infos(paths []string, values [][][]byte) []ContainerInfo {
	infos := make([]ContainerInfo, len(paths))
	for i, p := range paths {
		vals := values[i]
		n := min(len(vals), MaxSampleValues)
		infos[i] = ContainerInfo{Path: p, Count: len(vals), Sample: vals[:n:n]}
		for _, v := range vals {
			infos[i].TotalBytes += len(v)
		}
	}
	return infos
}
