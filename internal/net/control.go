package netio

import (
	"fmt"
	"net"
	"time"
)

// Control-plane client helpers: small dial-per-call RPCs against the
// master. Heartbeats and map fetches are rare and tiny, so a pooled
// transport would be complexity without payoff; each call dials,
// exchanges one frame pair under a deadline, and closes.

const defaultControlTimeout = 2 * time.Second

// controlRT performs one request/response round trip against addr.
func controlRT(addr string, req []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = defaultControlTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("netio: dial master %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := writeFrame(conn, req); err != nil {
		return nil, fmt.Errorf("netio: send to master: %w", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("netio: read master response: %w", err)
	}
	if len(resp) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrProtocol)
	}
	if msgType(resp[0]) == msgErrResp {
		return nil, decodeErrResp(resp[1:])
	}
	return resp, nil
}

func expectResp(resp []byte, want msgType) (*dec, error) {
	if msgType(resp[0]) != want {
		return nil, fmt.Errorf("%w: unexpected response type 0x%02x (want 0x%02x)",
			ErrProtocol, resp[0], byte(want))
	}
	return newDec(resp[1:]), nil
}

// RegisterNodes registers a DataNode serving the given node indexes at
// advertise with the master and returns the granted incarnation.
func RegisterNodes(master string, nodes []int, advertise string, timeout time.Duration) (uint64, error) {
	return RegisterNodesAt(master, nodes, advertise, "", "", timeout)
}

// RegisterNodesAt registers with failure-domain labels: the master
// records which rack and zone the DataNode serves from, so the node
// map, placement decisions, and dead-event coalescing become
// topology-aware. Empty labels reproduce the label-less RegisterNodes.
func RegisterNodesAt(master string, nodes []int, advertise, rack, zone string, timeout time.Duration) (uint64, error) {
	e := newEnc(msgRegisterReq).u32(uint32(len(nodes)))
	for _, n := range nodes {
		e.u32(uint32(n))
	}
	e.str(advertise)
	if rack != "" || zone != "" {
		e.str(rack).str(zone)
	}
	resp, err := controlRT(master, e.b, timeout)
	if err != nil {
		return 0, err
	}
	d, err := expectResp(resp, msgRegisterResp)
	if err != nil {
		return 0, err
	}
	inc := d.u64()
	return inc, d.err
}

// SendHeartbeat reports liveness for an incarnation. known=false means
// the master does not recognize the incarnation (it expired or was
// fenced out as dead): the caller must re-register.
func SendHeartbeat(master string, incarnation uint64, timeout time.Duration) (known bool, err error) {
	resp, err := controlRT(master, newEnc(msgHeartbeatReq).u64(incarnation).b, timeout)
	if err != nil {
		return false, err
	}
	d, err := expectResp(resp, msgHeartbeatResp)
	if err != nil {
		return false, err
	}
	status := d.u8()
	if d.err != nil {
		return false, d.err
	}
	return status == 0, nil
}

// FetchNodeMap retrieves the master's node index → DataNode view.
func FetchNodeMap(master string, timeout time.Duration) (map[int]NodeInfo, error) {
	resp, err := controlRT(master, newEnc(msgNodeMapReq).b, timeout)
	if err != nil {
		return nil, err
	}
	d, err := expectResp(resp, msgNodeMapResp)
	if err != nil {
		return nil, err
	}
	return decodeNodeMap(d)
}

// decodeNodeMap decodes a msgNodeMapResp body. The announced count only
// sizes the map as far as the body could actually hold entries (25
// bytes each at the least), so a lying count cannot buy a huge
// allocation.
func decodeNodeMap(d *dec) (map[int]NodeInfo, error) {
	n := int(d.u32())
	out := make(map[int]NodeInfo, min(n, d.remaining()/25))
	for i := 0; i < n && d.err == nil; i++ {
		node := int(d.u32())
		info := NodeInfo{State: NodeState(d.u8())}
		info.Incarnation = d.u64()
		info.Addr = d.str()
		info.Rack = d.str()
		info.Zone = d.str()
		out[node] = info
	}
	return out, d.err
}

// ReportObject records an object's stripe count in the master's
// placement map.
func ReportObject(master, name string, stripes int, timeout time.Duration) error {
	resp, err := controlRT(master, newEnc(msgReportObjReq).str(name).u32(uint32(stripes)).b, timeout)
	if err != nil {
		return err
	}
	_, err = expectResp(resp, msgOKResp)
	return err
}

// ListObjects retrieves the master's object → stripe-count map.
func ListObjects(master string, timeout time.Duration) (map[string]int, error) {
	resp, err := controlRT(master, newEnc(msgListObjReq).b, timeout)
	if err != nil {
		return nil, err
	}
	d, err := expectResp(resp, msgObjectsResp)
	if err != nil {
		return nil, err
	}
	return decodeObjects(d)
}

// decodeObjects decodes a msgObjectsResp body (8 bytes per entry at the
// least; see decodeNodeMap for the sizing rule).
func decodeObjects(d *dec) (map[string]int, error) {
	n := int(d.u32())
	out := make(map[string]int, min(n, d.remaining()/8))
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		out[name] = int(d.u32())
	}
	return out, d.err
}
