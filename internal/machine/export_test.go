package machine

// OnStrip has f told of every strip ComputeStrip makes, until the returned
// function is called.
func OnStrip(f func(charges []Listed, n int64, leapt bool)) (restore func()) {
	old := stripped
	stripped = f
	return func() { stripped = old }
}
