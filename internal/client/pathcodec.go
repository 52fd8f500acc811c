package client

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"cdstore/internal/protocol"
)

// Path encoding (§4.3): "for sensitive information (e.g., a file's full
// pathname), we encode and disperse it via secret sharing."
//
// With Options.EncodePaths set, a server never sees a plaintext path.
// Cloud i instead receives the opaque string
//
//	x1:<fileID>:<pathLen>:<hex of share i>
//
// where the shares come from the (deterministic) convergent scheme — so
// the same path always maps to the same per-cloud name, which both lookup
// and deduplication of repeated backups require — and fileID is a
// truncated salted hash of the path that is identical across clouds, so
// listings from k clouds can be matched up and the plaintext recovered by
// combining any k shares. An attacker controlling fewer than k clouds
// learns only the path's length.

// pathPrefix marks encoded paths (versioned for future evolution).
const pathPrefix = "x1:"

// pathID derives the cross-cloud alignment ID for a path.
func (c *Client) pathID(path string) string {
	h := sha256.New()
	h.Write([]byte("cdstore-path-id\x00"))
	h.Write(c.opts.Salt)
	h.Write([]byte(path))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// encodePaths reports whether path encoding is active.
func (c *Client) encodePaths() bool { return c.opts.EncodePaths }

// pathForCloud returns the name cloud i stores for path.
func (c *Client) pathForCloud(cloud int, path string) (string, error) {
	if !c.encodePaths() {
		return path, nil
	}
	shares, err := c.codec.Split([]byte(path))
	if err != nil {
		return "", fmt.Errorf("client: encoding path: %w", err)
	}
	return fmt.Sprintf("%s%s:%d:%s", pathPrefix, c.pathID(path), len(path),
		hex.EncodeToString(shares[cloud])), nil
}

// plainPaths maps the path ID of each of the user's files to its
// plaintext path, from one ListFiles — the decoding a heal round needs for
// the encoded names a cloud reports. Without EncodePaths it lists nothing
// and returns nil: this client encodes no name, so it decodes none.
func (c *Client) plainPaths() (map[string]string, error) {
	if !c.encodePaths() {
		return nil, nil
	}
	infos, err := c.ListFiles()
	if err != nil {
		return nil, err
	}
	plain := make(map[string]string, len(infos))
	for _, info := range infos {
		plain[c.pathID(info.Path)] = info.Path
	}
	return plain, nil
}

// encodedPathPart is one cloud's contribution to a listed path: the
// fields of its name, and the cloud and listing entry it came from.
type encodedPathPart struct {
	cloud int
	id    string
	plen  int
	share []byte
	info  protocol.FileInfo
}

// parseEncodedPath splits an x1 path string.
func parseEncodedPath(s string) (*encodedPathPart, error) {
	if !strings.HasPrefix(s, pathPrefix) {
		return nil, fmt.Errorf("client: not an encoded path: %q", s)
	}
	fields := strings.SplitN(s[len(pathPrefix):], ":", 3)
	if len(fields) != 3 {
		return nil, fmt.Errorf("client: malformed encoded path %q", s)
	}
	plen, err := strconv.Atoi(fields[1])
	if err != nil || plen < 0 {
		return nil, fmt.Errorf("client: bad path length in %q", s)
	}
	share, err := hex.DecodeString(fields[2])
	if err != nil {
		return nil, fmt.Errorf("client: bad share hex in %q", s)
	}
	return &encodedPathPart{id: fields[0], plen: plen, share: share}, nil
}

// decodeListedPaths reconstructs plaintext paths from per-cloud listings.
// listings[i] is cloud i's file list (nil for unavailable clouds).
func (c *Client) decodeListedPaths(listings [][]protocol.FileInfo) ([]protocol.FileInfo, error) {
	groups := make(map[string][]*encodedPathPart)
	order := []string{}
	for cloud, infos := range listings {
		for _, info := range infos {
			part, err := parseEncodedPath(info.Path)
			if err != nil {
				return nil, err
			}
			part.cloud, part.info = cloud, info
			if _, seen := groups[part.id]; !seen {
				order = append(order, part.id)
			}
			groups[part.id] = append(groups[part.id], part)
		}
	}
	out := make([]protocol.FileInfo, 0, len(groups))
	for _, id := range order {
		parts := groups[id]
		if len(parts) < c.opts.K {
			return nil, fmt.Errorf("client: only %d shares of path %s listed (< k=%d)", len(parts), id, c.opts.K)
		}
		shares := make(map[int][]byte, c.opts.K)
		for _, p := range parts[:c.opts.K] {
			shares[p.cloud] = p.share
		}
		plain, err := c.codec.Combine(shares, parts[0].plen)
		if err != nil {
			return nil, fmt.Errorf("client: decoding path %s: %w", id, err)
		}
		info := parts[0].info
		info.Path = string(plain)
		out = append(out, info)
	}
	return out, nil
}
