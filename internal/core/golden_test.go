package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cdstore/internal/secretshare"
)

// Golden share vectors: §3.2's "equal secrets give equal shares", held
// across versions. Every stored share is addressed by its SHA-256 on its
// cloud, so a codec change that moves one share byte silently ends
// deduplication against — and repair of — everything already stored. The
// table was generated at the commit before the arena-only codec refactor
// and must never be regenerated to make a change pass. (The rows of the
// paper's baselines, CAONT-RS-Rivest and AONT-RS, are pinned beside them
// in internal/bench.)

// goldenSecret is the fixed secret of the given size the vectors were
// generated from.
func goldenSecret(size int) []byte {
	s := make([]byte, size)
	for i := range s {
		s[i] = byte(i*131 + (i >> 8) + 7)
	}
	return s
}

type goldenRow struct {
	scheme string
	n, k   int
	size   int
	shares []string // hex SHA-256 of share 0..n-1
}

func goldenScheme(t *testing.T, name string, n, k int) *CAONTRS {
	t.Helper()
	var s *CAONTRS
	var err error
	switch name {
	case "CAONT-RS":
		s, err = NewCAONTRS(n, k)
	case "CAONT-RS/org":
		s, err = NewCAONTRSWithSalt(n, k, []byte("org"))
	default:
		t.Fatalf("unknown golden scheme %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGoldenShareVectors(t *testing.T) {
	arena := secretshare.NewArena()
	for _, row := range goldenShareHashes {
		s := goldenScheme(t, row.scheme, row.n, row.k)
		secret := goldenSecret(row.size)
		for _, via := range []string{"Split", "SplitInto"} {
			var shares [][]byte
			var err error
			if via == "Split" {
				shares, err = s.Split(secret)
			} else {
				shares, err = s.SplitInto(secret, arena)
			}
			if err != nil {
				t.Fatalf("%s (%d,%d) size %d: %s: %v", row.scheme, row.n, row.k, row.size, via, err)
			}
			if len(shares) != len(row.shares) {
				t.Fatalf("%s (%d,%d) size %d: %s gave %d shares, want %d",
					row.scheme, row.n, row.k, row.size, via, len(shares), len(row.shares))
			}
			for i, sh := range shares {
				h := sha256.Sum256(sh)
				if got := hex.EncodeToString(h[:]); got != row.shares[i] {
					t.Errorf("%s (%d,%d) size %d: %s share %d hashes to %s, stored as %s",
						row.scheme, row.n, row.k, row.size, via, i, got, row.shares[i])
				}
			}
		}
	}
}

var goldenShareHashes = []goldenRow{
	{"CAONT-RS", 4, 3, 1, []string{
		"875cbdf4a7776496cb3c40f3d263827051cf5705cb76ee22ce3ab5b4ca9cb02f",
		"daad2f465c15ccbce93643613f4adc584e251e05d61432deece6d9579f8dd02f",
		"19178e4cd589e753cd69655a4dcb83fc4cc427ac1a576e6cde86a0e528d11ba6",
		"5c1a3fda1b8d1dbed82010aff21256816913388ca81b46a982784ce83070c0e3",
	}},
	{"CAONT-RS", 4, 3, 31, []string{
		"e6679e8b9f86dadd112ab3601cd0423505f3437bdaf55eb89a6541bbb4984fb9",
		"b7eeeb6e88e3c9b0086bd6fe559ef223ddd0913a1abe027c14e88a26b7aa5a19",
		"164b2c43a1d4e62b83a130db15eff17fb9e7d97f59b910369c85b35e5b721d07",
		"847210d55f1295ab052ecf5c3e9749025ae706e01a77c3633e98b01978fea56f",
	}},
	{"CAONT-RS", 4, 3, 32, []string{
		"e3420507c4ca580dac51badacac924f14fe452a98c1cad5fdff0c7c5bfcc4783",
		"699e3c19053d2f678837108ca28c9efbe24bf7dad1a52778d64e715362d34a56",
		"2eda60ab8223524b2aeeeb941c45d7bcd99cff87ba546848c75f9db80b252bd1",
		"1e42219712c3920efe03d0608ac43492195289fc3210682fb22e01d98684ea14",
	}},
	{"CAONT-RS", 4, 3, 33, []string{
		"8f95150cbfeb69262d8fbfa0dd51f1d3d58bb288406e8c7dfc99bc9a16951363",
		"7161a311a02f74dc664aaeee8879b50d19b7f1da3f4b2e40ef1d2fa5b6f43b55",
		"538497fa476d6b555762d95eaf927e1fae78b0d32ea075730f6d7156b71038ac",
		"b1508ae5e9c396e0efc3ccb32c58429709c865b582901bf1e712abf1f167bcb0",
	}},
	{"CAONT-RS", 4, 3, 4095, []string{
		"fe943bc40d2b5d10be6d5612fbbfeed41fe26aef12c42f538ae9a92cd0530a34",
		"4cb8d2525a35593043a982a1cfbef319b8f675c07f78f5868ba76201ae1c26db",
		"f1fac0e64393582ba36f61cf9ad7671d5b0426df21c1b5851baf815e2c7d9a3b",
		"9d5520b500416b41b00cdf63ad212de63f573c10e1e7ff1e19da81be4dff0269",
	}},
	{"CAONT-RS", 4, 3, 8192, []string{
		"9ef1e5caf9d729140fc5d41f7f06f5637224ff12728d7702a5ce8ad5265f9827",
		"31538e4fd92b5e5ba8e417e26d15112393c17a6a767e3911d69aabd7e5f2dc49",
		"d30ecff6471d479d90f4243d66fbeb4cd2280c7e061cbd676504ea78bdb23bb0",
		"3e6a3d30f1cab94d259fdef95b201d1934e15d31c016f25aeefc84594a997c36",
	}},
	{"CAONT-RS", 4, 3, 16384, []string{
		"18f31473331fa66b7b171717e547dda644e51828cbf958d62d9cc1af57600901",
		"c69169636919a79ee691e87d1ee2505d1cc0dc7dd9e956a3f053f388a22194d5",
		"5ac2bbfc8fcf23e5a47e03170de214b6afcf536dc76770c55d47797c1d96c3e5",
		"3e43cf5f49074c3c8c0ee1eb6da60040f5296c470923660a72b3514aa6e5dd78",
	}},
	{"CAONT-RS/org", 4, 3, 1, []string{
		"581b51d41224b2784789ad712afe2063179a4dcac9a44802600f31038dfbf316",
		"d0eae54cabfa52a8734118ede82a11d21667d7c1949697f24bafb92cde692028",
		"9519e0451bf90db344e366102634222a71e12404aa1cae8c720e8380d18807fb",
		"3e937bbddd32596fe2f6a31168d1ef7ac8e47baef7eda4267a587396deb7f4a0",
	}},
	{"CAONT-RS/org", 4, 3, 31, []string{
		"f763797485b96f4102ce37fa588ffba23104d6b79417bfd286c0e5ae2e517de0",
		"6b385659aa61c0dbd44893429a92a2b00a722175a4a24ab1337b2b72601a5b0f",
		"0f58d5636bb51f5b91474810269fdb3128cfe71d2a6f215feaffc62508f20d2d",
		"2f14ead075abeb827491712411e50f18b59276d5d52633b6d7f7c61a63d89fb1",
	}},
	{"CAONT-RS/org", 4, 3, 32, []string{
		"bfb076b10287968f5b1d0313150932e0b58557d21aa7dabb615656d957eca6e8",
		"09d956d72d8f2894c438d01cb44a9bf90bca8d8e413f2b697664b66fe9ee0e3e",
		"ef794102fb46b27637a94fb4722a590ee8ee6bb768e3d20e57640412f712a8a6",
		"e9aef7205264fe60f48f91cdf42c30f925e818d45d31df52a8ce9fa82e53bd94",
	}},
	{"CAONT-RS/org", 4, 3, 33, []string{
		"c65b13342646848c77177a46d8a270cef197b0397db0dae7754949207b4d6eb5",
		"3af79108dbc20b378f43ce73cd239a058c5018e4ca70b5e453e65a348b418491",
		"35fe1015a79753f6f9a69b33c7f546328cc720db3f44fa721ea16e122a86ad97",
		"c190d5d9e1da42204df63e35d5d698da1ec261f39c7033897355d7d1e77a6783",
	}},
	{"CAONT-RS/org", 4, 3, 4095, []string{
		"d11ff0587cd609868ff7c8a0a40ada260a6b71975d00c858329408755e9311f4",
		"42404a51c42d09871d41b8ce03985c26317c8e586c8fee71369f472abccf7282",
		"91896bc2a7cd655b9427192eb77a342a9681d00d38fec5456f2a8a313e4f3fa7",
		"bc5f09287c75935f4e610a3a5038051bf4201e664c260667b7dafefe6b6466e5",
	}},
	{"CAONT-RS/org", 4, 3, 8192, []string{
		"a97543c336c5857bf43d536d5e1b78ac2bc237f15ac7e9a3617997e00024417e",
		"3314a6433b42eaf328f60f15ff55507b42fcc7ae1976a873eaa643e65783e056",
		"6e83ddd9ff5503be77ecfd1a089efb219ac0964a802026eea3d3b208f32ebecc",
		"0184aec8f10e21f8a1e8f6f44b2a75c7d0cebe4700ebf0f9a1c83e8233fcd95f",
	}},
	{"CAONT-RS/org", 4, 3, 16384, []string{
		"47b7a8e05b767a99c620efb334bcbe7c2e47566b107d590c5051a1b309438a4e",
		"6c6eeff9cf6a1fdc845e197f6144fdf8470c0b843b55044ab87851724e23dd5e",
		"e2494c429083555b2984454201d942219ebcda0f41d95f0364c4b81fab9455fc",
		"4d18542c113f85cc89ca09fa11d9fcfdb97bf22f7107d243bbb12cb6fab3b29b",
	}},
	{"CAONT-RS", 6, 4, 1, []string{
		"4bee7aaef3be0a2e313722366cecbe4813569d5fb9b3557ccca4a60c8e5572c2",
		"787223d3de5e4c31d7590671aebb555019497254c6bc18b2f2bd405252963fd1",
		"83b9ebb5b6cd7979266f3377e325ead0b8643ef4a3f3bc77dcf185eea9d7b7c9",
		"a48805b01469a091c0ac28f588ecf47f437f23e4982b558b67a7c3f787ac77e5",
		"910eb96fa6ec6caddf28215dd329928fc203fee5b7eb531366cc264cb8582f05",
		"92a55b97371cdd403d1074c34d35bb946fd21641900d32f92c12c6e95febb634",
	}},
	{"CAONT-RS", 6, 4, 31, []string{
		"27feb1516218f36882369db66ce27c2ada73339df2ba052a5baea115c66c621a",
		"5c1b8cef48a0118983e3d235a71be767dbfc7e85e5b2a6b324784323983c8464",
		"46043d341d750717e4d61f1141417a92c9c1e8ee32bc8669e8e74710ac8d79ae",
		"aa8798aebf2a618c12888c91a993fdf5697180a902aa56d3c3b0f3a11b774a12",
		"9e67c8940043a48d72347648463aab78c69c36a699ac005e0a313f9f317730f8",
		"c1f16712d4d1bab773b42fe39c5461042e4a7b704f443dd49c0a8660a9137c3e",
	}},
	{"CAONT-RS", 6, 4, 32, []string{
		"a7db1f57a59f0276aa53aa7c346b96df27d2729cd4db4e76f063c89239996751",
		"5c6823b933d881acd1800cd4c025a78b24f94077163d37f7889b0f471e12f209",
		"6fd68465ea29a0393633bf38f32b72b05f0d6e82de5e1fa888f964d169060011",
		"9ede6fff6285be8768b85a6e00110b0827040252ad5e99ece02d93260ee8365b",
		"a30094492e5878a7dacc1cb5a2a41b980b30395178432598ca965b52411fcf6a",
		"d8cdcfb949421d684fefa5bf16930a50abd5ff61c744510ff53437916c9c1616",
	}},
	{"CAONT-RS", 6, 4, 33, []string{
		"13f232baf4668abdb209871b5b10d7bc3b8701b7713e70ad21db1c68ed730fbd",
		"3a4cdfea577b89db3061826a143b3570d69354ad8e0f07566a12e458d4de051f",
		"b006841feee3f4b9dd78f1113843516815ca127c04bb3bd2d55f6e8704d6c59f",
		"f1ef7094cbf452d2b5d2f987069fa7ed3f10b40b25e40d2338f0eb0b6a1c2146",
		"6758796c6d868a57492acf25f1578bc6dbe10411f0af64999acc5c59fc1414a3",
		"fa06c1d2c64c8a235a0ca39766c942d86516865d893cc6a19d53c163c4478d58",
	}},
	{"CAONT-RS", 6, 4, 4095, []string{
		"57f1947de93283ee8759d9867dfc9e1cd828452b1e82f3fb8f354b4449275c20",
		"56f1e054fd5ad80b19bd6791e29aba5ae84b49f654a6706341dcc1b3efd8ab0a",
		"35e12938e66ad3688885bab0da75e87b70000f49a942ba2335a7d86225ed67e2",
		"9963e48b03806b3c21932d9db95058cc8cf74fec1671f788c52bad97fe973623",
		"181b8d60d4512945eb8cd922123ec070fd28565edbb791c07dfcbe3abb98a53f",
		"47aace67afef0648ceb4e6b411626203921771b41748f8f0105f1fec3d845894",
	}},
	{"CAONT-RS", 6, 4, 8192, []string{
		"a20da7019cf63a71e8d91538481edc674462d03a2afa9d9c9bc350e34c019d62",
		"35ff959f4b71a2033180633ee09965b94b66fcd6099111fc82584e67d7a3cc9f",
		"e082ea12817a92ca587adcb871f731a7e8c5215d723794a299e490de0362a446",
		"c465f1613cc3e3a6572317be2d7a7a744df0e4eda1c5db208ba640e45ea083dd",
		"4daebf3ca981d1e951f6f41e79a19f26d89b6c7e36b3686f94af8db1c3c3d499",
		"04baa350a276232519e3b53ccc767d80e66fc436fd78da2f1e5d4be352357c83",
	}},
	{"CAONT-RS", 6, 4, 16384, []string{
		"ddad53d7460ae94c55ea9e26bd2755b7d75fe37bc988a4099301cbf76e7d919b",
		"948db6e6a320db1ecb98c5671eef21791fabc3754d18921c36ce75c74edd49d7",
		"1dc3a495195fdccd15da8c64ede84614fdb26cbbe40c1f398f75ce108b2ca4eb",
		"1a903f0983c96c6683869c905beac7bafe97032050d2e956b64dde3ee4eb4d55",
		"d7799094787ee0f3b671ed2842a71980414d5873357bac11d22f4dc3aecce2a6",
		"477f50ef019aef365bd8e990194c77fa77d1cd864514cc4e7f011232bff56aea",
	}},
	{"CAONT-RS/org", 6, 4, 1, []string{
		"b6f2800c185a268baa1fc69364e59b8a2cd1b8f4f2c1b35665b6a2a226f0d71b",
		"5678033d1e5add85c1ad40b9b35e0b99d6873274959d64ee9f2e41a1c618aaa3",
		"e181e27c038e2f0b798a1f0c4e106dd727547e72b9e25755c9844bab3c7cf320",
		"b1f05cf6a8e8f3911e3a8e6dfd522ab9d5b8597a7165baa179279530696c2cfa",
		"c399203a0bdf944ee8b5c74badf45b502a4bfb14c60ec8a886b7da4b1ca1c4b3",
		"9c9150c6f0b4b9565b847eae1438c7cb3d3b9f6586ba41a1e1b1bae95501fb3c",
	}},
	{"CAONT-RS/org", 6, 4, 31, []string{
		"43c60797cc9fabaf86cdebde353c4973ccebabe81adbd2ce30108bc082733b24",
		"de8ea9f29e597b44aaf0a3b279e1cf4ba68bbc41d2d2c1ee36c72a4a2b6648eb",
		"269e1a05c5941017447bfb607fbd404c2df9037aa9677d236fd4c6fd21790274",
		"7aa22ea4a5f9ad067ca121f1b2e73f1704cd86e1267e3d46d63085206f653761",
		"268f67a149ba642a59b54a5f94a0dfda80c3c400288dafd18e0b06cbdfefbc28",
		"e6d90c9cbba1f828a8e3451971a9736ea46eaa54d8998f8dde3f0582942d8944",
	}},
	{"CAONT-RS/org", 6, 4, 32, []string{
		"c41ce0386a2e8a464b89b58cf0cac572176f615beb70ce095139e63ab13fdabe",
		"638381541ab99b171362c50f50fa2f4bc29b2b40dc3408405128e0687147d244",
		"619af62055d8f70069e891e783b8a69bf86956eca5f10c0b29bdc02f317a110e",
		"3cda2ee13f807b4093db55c3dfdad644966c7fc9504c575b8cf6bfd3f4b6e745",
		"88049d57c18428b58db4ef2e7ac0ac7d1d89a7c7534bac094971eb070bf89934",
		"7336f399485a868ff94145302c03fc77897bde0650792ba1237d67711b2079ba",
	}},
	{"CAONT-RS/org", 6, 4, 33, []string{
		"e5bae2650f8329cca7974a5e638419c960521dcda0f377ff67ff70a19835ed37",
		"b1c27c3b828b8defa5f25e72346aa24d35b91887ff99a911fd5dd4bdc7e39d20",
		"8d44c23c59c02e152da132d9dc560723b6a09e5b1591637b8e790cc8bd89059f",
		"b88318401ed1f8dba3dcec881ffb7f11615d793cc72ec3be295c842884d70aa5",
		"1eff90add2f1a1fef824195950707cc1641576b425696cf0179ef09ef77bbf79",
		"e8cca78b5a483585869b729b017a328fa2a5b8cd0e7c202a3e4f8196c1a1d9bd",
	}},
	{"CAONT-RS/org", 6, 4, 4095, []string{
		"de35633e9fbd6f218a5649c7d6c7309d3ba2698fd99d6222d03add1cd769c5aa",
		"3f3ad69e7034aa5eb6bcf73de026afbd7eb1a99c6b38ffb646b995c6492c0905",
		"d9cb7ca08a9cc0035da36550ad9c07bf0bb646b202493090aaf8a70377487b84",
		"58248cb8d59747bd4f070728ead4c4d5a6148917b04fa0a3ab77c8b6c121f767",
		"af4e5a197b4a10c27853f1a03d3866b2c0475cc1ae73d2ecf0e77decdb033da3",
		"f375e0189c5d6c08fce83d7461dca8473869c4bfacc98c021ce7f9a347562a79",
	}},
	{"CAONT-RS/org", 6, 4, 8192, []string{
		"3afb2ce8c2cb62a355d7e016f61eac5ff4cebfb3c969487699eafe609e0bdad2",
		"2a3b8584574ba0d353adcebb83f1ef57a4c240e3826acfda28cf35bb976c49c8",
		"3cbf33c495baed3e7c49b698f93ced0700ac8566e8cdbbd6580f3783f2185e3c",
		"ffc4a892b56227091c21f3501d5e47f141566c63577f030783d5a3fbcfa74ae2",
		"e7d0beb89e8dc22253a4c07cf14cb863143cfcf2981282924d1b52abc249e1fa",
		"0a87e22a5a6aa86ac51b4f4dbb406491c7ab7d2c4264077706adc626839f16ad",
	}},
	{"CAONT-RS/org", 6, 4, 16384, []string{
		"ce46590c5f2b255a8a8f4117fc5604d941d0b9eaece08774d178078498757420",
		"029d39062f9e696d9334476fa7b493aeb8aa38f11560d6901c38ab850cdd5e67",
		"4fbc4aa08f60da4d0b01ad8d7fbc3b27fe2c25996aacd461315344203935b289",
		"85980b328fd701f15c067a6e9441b0cbd8ba9940bfd5b956bd5a530db1c61ac1",
		"e675f2b3c0ff78f2ae6e7e9261d5616a3607b0461efd587c7d71ad31f43dc679",
		"390b676c7cf80e6d2d23595bf4afaaec4258735db40765de817b222af0cce779",
	}},
}
