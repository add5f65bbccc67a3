package memory

// Test-only methods: what the tests read or drive that no non-test code does.

// WriteUint64 stores a little-endian uint64 at addr.
func (s *Space) WriteUint64(addr Addr, v uint64) error {
	return s.refusal(s.StoreUint64(addr, v), addr, 8, true)
}

// WriteUint32 stores a little-endian uint32 at addr.
func (s *Space) WriteUint32(addr Addr, v uint32) error {
	return s.refusal(s.StoreUint32(addr, v), addr, 4, true)
}

// ReadUint32 loads a little-endian uint32 at addr.
func (s *Space) ReadUint32(addr Addr) (uint32, error) {
	v, ok := s.LoadUint32(addr)
	return v, s.refusal(ok, addr, 4, false)
}
