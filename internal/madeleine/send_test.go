package madeleine

// SendCtrl is SendCtrlID on the channel named channel.
func (nw *Network) SendCtrl(from, to int, channel string, payload interface{}) {
	nw.SendCtrlID(from, to, nw.ChannelID(channel), payload)
}

// SendBulk is SendBulkID on the channel named channel.
func (nw *Network) SendBulk(from, to int, channel string, size int, payload interface{}) {
	nw.SendBulkID(from, to, nw.ChannelID(channel), size, payload)
}
