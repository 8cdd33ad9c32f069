from strateval.cli import main

raise SystemExit(main())
