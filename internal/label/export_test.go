package label

// To returns dist(key -> k) for k the i-th separator key of the bag's
// layout, the first half of the vector (nil in a leaf).
func (l *Label) To() []int64 {
	if l.leaf() {
		return nil
	}
	n := len(l.vec) / 2
	return l.vec[:n:n]
}

// From returns dist(k -> key) for k the i-th separator key of the bag's
// layout, the second half of the vector (nil in a leaf).
func (l *Label) From() []int64 {
	if l.leaf() {
		return nil
	}
	return l.vec[len(l.vec)/2:]
}

// LeafTo returns dist(key -> k) for k the i-th key of the leaf bag's layout
// (nil outside a leaf).
func (l *Label) LeafTo() []int64 {
	if !l.leaf() {
		return nil
	}
	return l.vec
}
