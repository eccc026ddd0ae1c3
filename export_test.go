package squirrel

import "squirrel/internal/source"

// SourceDBOf exposes a Source's database to the external benchmarks,
// which read its current relations directly.
func SourceDBOf(src *Source) *source.DB { return src.db }
