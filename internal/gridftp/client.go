package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client drives one GridFTP control connection.
type Client struct {
	mu       sync.Mutex
	conn     net.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	host     string
	parallel int
}

// Dial connects and authenticates with the session token.
func Dial(addr, token string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dialing %s: %w", addr, err)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = "127.0.0.1"
	}
	c := &Client{
		conn: conn, host: host,
		r: bufio.NewReader(conn), w: bufio.NewWriter(conn),
		parallel: DefaultParallelism,
	}
	if _, _, err := c.readReply(); err != nil { // 220 banner
		conn.Close()
		return nil, err
	}
	if code, msg, err := c.cmd("AUTH %s", token); err != nil || code != 230 {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("gridftp: auth rejected: %s", msg)
		}
		return nil, err
	}
	return c, nil
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	fmt.Fprintf(c.w, "QUIT\r\n")
	c.w.Flush()
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) cmd(format string, args ...any) (int, string, error) {
	fmt.Fprintf(c.w, format+"\r\n", args...)
	if err := c.w.Flush(); err != nil {
		return 0, "", err
	}
	return c.readReply()
}

func (c *Client) readReply() (int, string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, "", fmt.Errorf("gridftp: reading reply: %w", err)
	}
	line = strings.TrimSpace(line)
	if len(line) < 3 {
		return 0, "", fmt.Errorf("gridftp: short reply %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return 0, "", fmt.Errorf("gridftp: bad reply %q", line)
	}
	msg := strings.TrimSpace(line[3:])
	return code, msg, nil
}

// SetParallel negotiates the data-stream count for following transfers.
func (c *Client) SetParallel(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, msg, err := c.cmd("PARALLEL %d", n)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("gridftp: PARALLEL rejected: %s", msg)
	}
	c.parallel = n
	return nil
}

// Size queries a remote file's size.
func (c *Client) Size(path string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, msg, err := c.cmd("SIZE %s", path)
	if err != nil {
		return 0, err
	}
	if code != 213 {
		return 0, fmt.Errorf("gridftp: SIZE %s: %s", path, msg)
	}
	return strconv.ParseInt(msg, 10, 64)
}

// Checksum queries a remote file's CRC32.
func (c *Client) Checksum(path string) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, msg, err := c.cmd("CKSM %s", path)
	if err != nil {
		return 0, err
	}
	if code != 213 {
		return 0, fmt.Errorf("gridftp: CKSM %s: %s", path, msg)
	}
	v, err := strconv.ParseUint(msg, 16, 32)
	return uint32(v), err
}

// StoreFrom uploads size bytes from ra to the remote path using the
// negotiated number of parallel streams.
func (c *Client) StoreFrom(path string, ra io.ReaderAt, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, msg, err := c.cmd("STOR %s %d", path, size)
	if err != nil {
		return err
	}
	if code != 150 {
		return fmt.Errorf("gridftp: STOR %s: %s", path, msg)
	}
	fields := strings.Fields(msg)
	if len(fields) != 2 {
		return fmt.Errorf("gridftp: malformed STOR grant %q", msg)
	}
	xferID, port := fields[0], fields[1]

	if size == 0 {
		// Nothing to move: the server completes immediately and may
		// already have closed its data listener.
		code, msg, err = c.readReply()
		if err != nil {
			return err
		}
		if code != 226 {
			return fmt.Errorf("gridftp: STOR %s failed: %s", path, msg)
		}
		return nil
	}

	// Open no more streams than there are blocks: the server finishes
	// once every byte has arrived and closes its data listener, so a
	// stream with nothing to send could dial after that and fail a
	// transfer that has succeeded.
	streams := c.parallel
	if blocks := (size + blockSize - 1) / blockSize; blocks < int64(streams) {
		streams = int(blocks)
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	// Round-robin blocks across streams: stream k sends blocks k, k+S, …
	for k := 0; k < streams; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", net.JoinHostPort(c.host, port), 30*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			fmt.Fprintf(conn, "DATA %s %d\n", xferID, k)
			w := bufio.NewWriterSize(conn, blockSize+16)
			buf := make([]byte, blockSize)
			for blockIdx := int64(k); blockIdx*blockSize < size; blockIdx += int64(streams) {
				off := blockIdx * blockSize
				n := blockSize
				if off+int64(n) > size {
					n = int(size - off)
				}
				if _, err := ra.ReadAt(buf[:n], off); err != nil && err != io.EOF {
					errs <- err
					return
				}
				if err := writeBlock(w, uint64(off), buf[:n]); err != nil {
					errs <- err
					return
				}
			}
			if err := writeBlock(w, 0, nil); err != nil {
				errs <- err
				return
			}
			errs <- w.Flush()
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			c.readReply() // drain the control-channel completion
			return fmt.Errorf("gridftp: data stream: %w", err)
		}
	}
	code, msg, err = c.readReply()
	if err != nil {
		return err
	}
	if code != 226 {
		return fmt.Errorf("gridftp: STOR %s failed: %s", path, msg)
	}
	return nil
}

// StoreBytes uploads a byte slice.
func (c *Client) StoreBytes(path string, data []byte) error {
	return c.StoreFrom(path, bytes.NewReader(data), int64(len(data)))
}

// StoreFile uploads a local file.
func (c *Client) StoreFile(remotePath, localPath string) error {
	f, err := os.Open(localPath)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	return c.StoreFrom(remotePath, f, st.Size())
}

// Retrieve downloads a remote file into wa (which must accept writes at
// arbitrary offsets, since parallel streams deliver out of order).
// It returns the byte count.
func (c *Client) Retrieve(path string, wa io.WriterAt) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, msg, err := c.cmd("RETR %s", path)
	if err != nil {
		return 0, err
	}
	if code != 150 {
		return 0, fmt.Errorf("gridftp: RETR %s: %s", path, msg)
	}
	fields := strings.Fields(msg)
	if len(fields) != 3 {
		return 0, fmt.Errorf("gridftp: malformed RETR grant %q", msg)
	}
	xferID, port := fields[0], fields[1]
	size, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return 0, err
	}
	streams := c.parallel
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for k := 0; k < streams; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", net.JoinHostPort(c.host, port), 30*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			fmt.Fprintf(conn, "DATA %s %d\n", xferID, k)
			r := bufio.NewReaderSize(conn, blockSize+16)
			for {
				off, payload, err := readBlock(r)
				if err != nil {
					errs <- err
					return
				}
				if payload == nil {
					errs <- nil
					return
				}
				if _, err := wa.WriteAt(payload, int64(off)); err != nil {
					errs <- err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			c.readReply()
			return 0, fmt.Errorf("gridftp: data stream: %w", err)
		}
	}
	code, msg, err = c.readReply()
	if err != nil {
		return 0, err
	}
	if code != 226 {
		return 0, fmt.Errorf("gridftp: RETR %s failed: %s", path, msg)
	}
	return size, nil
}

// RetrieveFile downloads to a local file.
func (c *Client) RetrieveFile(remotePath, localPath string) (int64, error) {
	f, err := os.Create(localPath)
	if err != nil {
		return 0, err
	}
	n, rerr := c.Retrieve(remotePath, f)
	cerr := f.Close()
	if rerr != nil {
		return n, rerr
	}
	return n, cerr
}

// RetrieveBytes downloads a whole remote file into memory.
func (c *Client) RetrieveBytes(path string) ([]byte, error) {
	var buf writerAtBuffer
	if _, err := c.Retrieve(path, &buf); err != nil {
		return nil, err
	}
	return buf.data, nil
}

// ThirdParty asks this server to push src to dst on another server —
// the splitter's "transfer dataset parts to worker nodes" primitive.
func (c *Client) ThirdParty(src, remoteAddr, dst, token string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if token == "" {
		token = "-" // keep the command at four fields
	}
	code, msg, err := c.cmd("XFER %s %s %s %s", src, remoteAddr, dst, token)
	if err != nil {
		return 0, err
	}
	if code != 226 {
		return 0, fmt.Errorf("gridftp: XFER failed: %s", msg)
	}
	return strconv.ParseInt(msg, 10, 64)
}

// VerifyTransfer compares the remote checksum with local bytes — end-to-end
// integrity for staged dataset parts.
func (c *Client) VerifyTransfer(path string, local []byte) error {
	remote, err := c.Checksum(path)
	if err != nil {
		return err
	}
	if want := crc32.ChecksumIEEE(local); remote != want {
		return fmt.Errorf("gridftp: checksum mismatch on %s: remote %08x local %08x", path, remote, want)
	}
	return nil
}

// writerAtBuffer grows as offsets arrive.
type writerAtBuffer struct {
	mu   sync.Mutex
	data []byte
}

func (b *writerAtBuffer) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("negative offset")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	end := off + int64(len(p))
	if int64(len(b.data)) < end {
		grown := make([]byte, end)
		copy(grown, b.data)
		b.data = grown
	}
	copy(b.data[off:], p)
	return len(p), nil
}
