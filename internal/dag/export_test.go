package dag

// PathsCountingEdges is ResultView.Paths, also reporting how many edge
// lists the walk read.
func (v *ResultView) PathsCountingEdges(max int) ([]string, int) {
	reads := 0
	paths := v.paths(max, func(id VertexID) []Edge {
		reads++
		return v.edges(id)
	})
	return paths, reads
}
