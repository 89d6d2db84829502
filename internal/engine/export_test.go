package engine

import "xquec/internal/datagen"

// The random-document generator, the query battery and the directed
// documents, for the external test package (which may import
// internal/vm; this package's own tests may not).
var (
	RandomDoc    = datagen.RandomRecords
	QueryBattery = queryBattery
)

const (
	NestedLists = nestedLists
	PeopleDoc   = peopleDoc
)

// JoinIndexBuilds returns how many join indexes were built so far.
func JoinIndexBuilds() int64 { return joinIndexBuilds.Load() }
